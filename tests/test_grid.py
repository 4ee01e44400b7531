import numpy as np
import pytest

from fishgame.grid import (
    Field,
    Grid,
    field_to_csv,
    gradient,
    integral,
    laplacian_apply,
    mean,
    norm_sup,
    write_table,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.interval(0, 1, 2)  # too few nodes
    with pytest.raises(ValueError):
        Grid.interval(1, 1, 5)  # empty interval
    g = Grid.rectangle((0, 0), (1, 2), (5, 9))
    assert g.dim == 2
    assert g.spacing == (0.25, 0.25)
    assert g.node_count == 45
    assert g.volume == 2.0


def test_field_validation():
    g = Grid.interval(0, 1, 5)
    with pytest.raises(ValueError):
        Field(g, np.ones(4))
    with pytest.raises(ValueError):
        Field(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    f = Field.constant(g, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0  # immutable


def test_laplacian_constant_is_zero():
    g = Grid.interval(0, 1, 33)
    f = Field.constant(g, 0.7)
    assert norm_sup(laplacian_apply(f)) == 0.0


def test_laplacian_quadratic_interior_second_order():
    # exact second derivative 2 at interior nodes; halving h divides the
    # interior error by ~4
    errs = []
    for n in (65, 129):
        g = Grid.interval(0, 1, n)
        f = Field.from_callable(g, lambda x: x**2)
        lap = laplacian_apply(f).values
        errs.append(np.max(np.abs(lap[1:-1] - 2.0)))
    assert errs[0] < 1e-10  # quadratics are reproduced exactly by the stencil


def test_laplacian_cosine_converges_at_second_order():
    errs = []
    for n in (65, 129):
        g = Grid.interval(0, 1, n)
        f = Field.from_callable(g, lambda x: np.cos(np.pi * x))
        exact = Field.from_callable(g, lambda x: -np.pi**2 * np.cos(np.pi * x))
        errs.append(norm_sup(laplacian_apply(f) - exact))
    assert errs[0] / errs[1] > 3.5  # includes the boundary rows: Neumann-compatible data
    assert errs[1] < 5e-4


def test_laplacian_linearity():
    g = Grid.interval(0, 2, 41)
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal(g.shape))
    h = Field(g, rng.standard_normal(g.shape))
    lhs = laplacian_apply(2.5 * f + (-1.5) * h)
    rhs = 2.5 * laplacian_apply(f) + (-1.5) * laplacian_apply(h)
    assert norm_sup(lhs - rhs) < 1e-9


def test_mean_examples():
    g = Grid.interval(0, 1, 257)
    assert mean(Field.constant(g, 0.3)) == pytest.approx(0.3, abs=1e-14)
    assert mean(Field.from_callable(g, lambda x: x)) == pytest.approx(0.5, abs=1e-12)
    f = Field.from_callable(g, lambda x: np.sin(np.pi * x) ** 2)
    assert mean(f) == pytest.approx(0.5, abs=1e-5)


def test_mean_is_volume_average_2d():
    g = Grid.rectangle((0, 0), (2, 1), (33, 17))
    f = Field.from_callable(g, lambda x, y: x + 2 * y)
    assert mean(f) == pytest.approx(2.0, abs=1e-12)
    assert integral(f) == pytest.approx(4.0, abs=1e-12)


def test_gradient_examples():
    g = Grid.interval(0, 1, 33)
    (gx,) = gradient(Field.constant(g, 4.0))
    assert norm_sup(gx) == 0.0
    (gx,) = gradient(Field.from_callable(g, lambda x: x))
    assert norm_sup(gx - 1.0) < 1e-12
    g2 = Grid.rectangle((0, 0), (1, 1), (17, 17))
    gx, gy = gradient(Field.from_callable(g2, lambda x, y: x + 2 * y))
    assert norm_sup(gx - 1.0) < 1e-12
    assert norm_sup(gy - 2.0) < 1e-12


def test_discrete_integration_by_parts_rate():
    # |int g*lap(f) + int grad f . grad g| -> 0 at O(h) or better
    def residual(n):
        g = Grid.interval(0, 1, n)
        f = Field.from_callable(g, lambda x: np.cos(np.pi * x))
        q = Field.from_callable(g, lambda x: np.exp(x))
        lhs = integral(q * laplacian_apply(f))
        (fx,) = gradient(f)
        (qx,) = gradient(q)
        rhs = -integral(fx * qx)
        return abs(lhs - rhs)

    r1, r2 = residual(65), residual(129)
    assert r1 / r2 > 1.8
    assert r2 < 1e-2


def test_field_csv_format():
    g = Grid.interval(0, 1, 3)
    text = field_to_csv(Field(g, np.array([1.0, 0.5, 1.0 / 3.0])))
    lines = text.strip().split("\n")
    assert lines[0] == "x,value"
    assert lines[1] == "0,1"
    assert lines[2] == "0.5,0.5"
    assert lines[3] == "1,0.33333333333333331"  # 17 significant digits
    g2 = Grid.rectangle((0, 0), (1, 1), (3, 3))
    text2 = field_to_csv(Field.from_callable(g2, lambda x, y: x + 10 * y))
    lines2 = text2.strip().split("\n")
    assert lines2[0] == "x,y,value"
    # row-major: x outer, y inner
    assert lines2[1] == "0,0,0"
    assert lines2[2] == "0,0.5,5"


def test_write_table_literal_bytes(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("label", "a", "b"), [
        ("zero", -0.0, 5e-324),
        ("special", float("nan"), float("inf")),
        ("big", 1e300, -float("inf")),
        ("ints", 24, np.int64(-7)),
        ("flags", True, np.bool_(False)),
        ("numpy", np.float64(0.1), 1.0 / 3.0),
    ])
    assert path.read_bytes() == (
        b"label,a,b\n"
        b"zero,-0,4.9406564584124654e-324\n"
        b"special,nan,inf\n"
        b"big,1.0000000000000001e+300,-inf\n"
        b"ints,24,-7\n"
        b"flags,1,0\n"
        b"numpy,0.10000000000000001,0.33333333333333331\n"
    )


def test_write_table_numeric_rows_literal_bytes(tmp_path):
    # rows without labels take the one-format-per-row path; their cells must
    # read exactly as in the labelled rows above
    path = tmp_path / "table.csv"
    write_table(path, ("a", "b", "c"), [
        (-0.0, 5e-324, float("nan")),
        (float("inf"), 1e300, -float("inf")),
        (24, np.int64(-7), 2**60),
        (True, np.bool_(False), np.float32(0.1)),
        [np.float64(0.1), 1.0 / 3.0, 0],
        (1.0, 2.0),
    ])
    assert path.read_bytes() == (
        b"a,b,c\n"
        b"-0,4.9406564584124654e-324,nan\n"
        b"inf,1.0000000000000001e+300,-inf\n"
        b"24,-7,1.152921504606847e+18\n"
        b"1,0,0.10000000149011612\n"
        b"0.10000000000000001,0.33333333333333331,0\n"
        b"1,2\n"
    )


def test_sampling_interpolation():
    g = Grid.interval(0, 1, 101)
    f = Field.from_callable(g, lambda x: 2 * x)
    assert f.sample(np.array([0.333]))[0] == pytest.approx(0.666, abs=1e-9)
    g2 = Grid.rectangle((0, 0), (1, 1), (21, 21))
    f2 = Field.from_callable(g2, lambda x, y: x + y)
    assert f2.sample(np.array([[0.31, 0.47]]))[0] == pytest.approx(0.78, abs=1e-9)
