"""`check-monge` at benchmark size against an independent numpy reference.

The reference finds the first violated quadruple in exhaustive (i, j, r, s)
order with int64 arrays, one row i at a time; the CLI's stdout and exit code
must match it on seeded 40x40 convex-difference matrices, Monge ones and
ones broken by a single lowered last-column cell (whose witness lies near
the end of the scan).
"""

import random

import pytest

from transopt.cli import main

np = pytest.importorskip("numpy")

SIZE = 40


def numpy_first_witness(cost):
    c = np.asarray(cost, dtype=np.int64)
    m, n = c.shape
    later = np.arange(n)[None, :] > np.arange(n)[:, None]  # [j, s]: s > j
    for i in range(m - 1):
        rest = c[i + 1 :]
        # excess[j, r, s] = c[i, j] + c[r, s] - c[r, j] - c[i, s]
        excess = (
            (c[i][:, None] - rest.T)[:, :, None]
            + (rest - c[i][None, :])[None, :, :]
        )
        hits = np.argwhere((excess > 0) & later[:, None, :])
        if len(hits):
            j, k, s = (int(v) for v in hits[0])
            return i, j, i + 1 + k, s
    return None


def convex_diff_matrix(rng, shape, lowered):
    f = (lambda t: t * t) if shape == "square" else abs
    x = sorted(rng.randint(0, 100) for _ in range(SIZE))
    y = sorted(rng.randint(0, 100) for _ in range(SIZE))
    cost = [[f(a - b) for b in y] for a in x]
    if lowered:
        # Lower (p, n-1) past the slack of the adjacent quadruple
        # (p, n-2, p+1, n-1), which breaks that quadruple at least.
        p, q = SIZE - 2 - rng.randrange(3), SIZE - 1
        slack = cost[p + 1][q - 1] + cost[p][q] - cost[p][q - 1] - cost[p + 1][q]
        cost[p][q] -= slack + 1 + rng.randrange(5)
    return cost


def expected_output(cost):
    witness = numpy_first_witness(cost)
    if witness is None:
        return 0, "MONGE: HOLDS\n"
    i, j, r, s = witness
    direct = cost[i][j] + cost[r][s]
    cross = cost[r][j] + cost[i][s]
    a, b, c, d = i + 1, j + 1, r + 1, s + 1
    return 1, (
        f"MONGE: VIOLATED at ({a}, {b}, {c}, {d}): cost[{a}][{b}] + "
        f"cost[{c}][{d}] = {direct} > {cross} = cost[{c}][{b}] + cost[{a}][{d}]\n"
    )


def test_numpy_reference_on_a_small_case():
    # g = row_0 - row_1 = [3, 4, 5, 1]: first violation at j = 0, s = 3
    assert numpy_first_witness([[3, 4, 5, 1], [0, 0, 0, 0]]) == (0, 0, 1, 3)
    assert numpy_first_witness([[0, 1], [1, 0]]) is None


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("shape", ["square", "abs"])
@pytest.mark.parametrize("lowered", [False, True])
def test_cli_matches_numpy_reference(tmp_path, capsys, seed, shape, lowered):
    cost = convex_diff_matrix(random.Random(f"{seed}:{shape}:{lowered}"), shape, lowered)
    path = tmp_path / "instance.txt"
    rows = [" ".join(map(str, row)) for row in cost]
    path.write_text(f"{SIZE} {SIZE}\n" + "\n".join(rows) + f"\n{'1 ' * SIZE}\n{'1 ' * SIZE}\n")
    code = main(["check-monge", str(path)])
    expected_code, expected_out = expected_output(cost)
    assert (code, capsys.readouterr().out) == (expected_code, expected_out)
    assert lowered == (expected_code == 1)
