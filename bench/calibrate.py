"""Fixed reference work that tells how fast the machine runs the engine right now.

``run.py`` times this script, in a fresh interpreter, before and after every
pass.  It uses the standard library only, so a change to the engine cannot
change its time; it does the kind of work the engine does (a fresh process,
exact ``Fraction`` arithmetic, dicts keyed by small tuples, allocation), so
the slow phases of a shared host slow it as they slow the engine.
"""

from fractions import Fraction

table = {}
kept = []
for i in range(60000):
    key = (i % 13, i % 17, i % 19, i % 5)
    table[key] = table.get(key, 0) + Fraction(i, 7)
    if i % 3 == 0:
        kept.append((key, i))
