#!/usr/bin/env python3
"""Print the exact truncated measures against their 2^-n budgets.

The exact values sit strictly below 2^-n: the truncation converges to
1 - prod_{i>n} (1 - 2^-i), not to the budget itself.
"""

from canimm.schnorr import DyadicRational, measure_U_trunc


def main() -> None:
    print(f"{'n':>3} {'M':>3}  {'measure':<24} {'budget':<10} ok")
    for n in range(0, 8):
        for m in (n + 1, n + 4, n + 16, 64):
            if m <= n:
                continue
            value = measure_U_trunc(n, m)
            bound = DyadicRational(1, n)
            print(f"{n:>3} {m:>3}  {value.serialize():<24} {bound.serialize():<10} {value <= bound}")


if __name__ == "__main__":
    main()
