"""Reference text writer for Hilbert series.

The ``parsing.series_str`` that the generator-joined writer replaced,
kept as the oracle of the series text test: it builds a (sign, body)
pair per nonzero term and grows the text one term at a time.
"""


def series_str(h):
    if not h.numerator:
        return "0"
    terms = []
    for k, c in enumerate(h.numerator):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            tpart = "t" if k == 1 else "t^%d" % k
            body = tpart if abs(c) == 1 else "%d*%s" % (abs(c), tpart)
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    num = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        num += " %s %s" % (sign, body)
    if h.pole == 0:
        return num
    if len(terms) > 1:
        num = "(%s)" % num
    return "%s / (1-t)^%d" % (num, h.pole)
