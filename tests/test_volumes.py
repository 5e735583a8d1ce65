"""Volume table parsing and evaluation."""

import math
from fractions import Fraction

import pytest

from multicurve.exactpoly import PiRat
from multicurve.volumes import VolumeTable, parse_volume_table, volume_table_load


def test_bundled_table_entries():
    table = volume_table_load()
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 0)]:
        assert table.get(g, n).nvars == n
    with pytest.raises(KeyError, match=r"\(3, 1\)"):
        table.get(3, 1)


def test_pair_of_pants_is_implicit():
    # V(0,3) == 1 is auto-present even in an empty table
    table = parse_volume_table("")
    assert table.volume(0, 3, [1, 2, 3]) == 1
    # and an explicit entry overrides nothing surprising
    table2 = parse_volume_table("V 0 3 : 1")
    assert table2.volume(0, 3, [0, 0, 0]) == 1


def test_one_handle_entry():
    table = volume_table_load()
    p = table.get(1, 1)
    assert p.nvars == 1
    assert p.total_degree() == 1  # degree in the squared variable
    assert p.coefficient((1,)) == Fraction(1, 24)
    assert p.coefficient((0,)) == PiRat.pi2(1, Fraction(1, 6))
    assert table.volume(1, 1, [0]) == PiRat.pi2(1, Fraction(1, 6))
    # V(1,1)(b=2) = pi^2/6 + 4/24
    assert table.volume(1, 1, [2]) == PiRat.pi2(1, Fraction(1, 6)) + Fraction(1, 6)


def test_four_holed_sphere_entry():
    table = volume_table_load()
    assert table.volume(0, 4, [0, 0, 0, 0]) == PiRat.pi2(1, 2)
    assert float(table.volume(0, 4, [0, 0, 0, 0])) == pytest.approx(2 * math.pi**2, rel=1e-15)
    v = table.volume(0, 4, [1, 1, 0, 0])
    assert v == PiRat.pi2(1, 2) + 1


def test_two_cusp_torus_and_closed_genus_two():
    table = volume_table_load()
    assert table.volume(1, 2, [0, 0]) == PiRat.pi2(2, Fraction(1, 4))
    assert table.get(1, 2).total_degree() == 2
    assert table.volume(2, 0, []) == PiRat.pi2(3, Fraction(43, 2160))
    assert table.get(2, 0).nvars == 0


def test_volume_is_even_in_boundary_lengths():
    table = volume_table_load()
    assert table.volume(1, 2, [3, 5]) == table.volume(1, 2, [-3, 5])
    assert table.volume(0, 4, [1, 2, 3, 4]) == table.volume(0, 4, [4, 3, 2, 1])


def test_parse_basic_record():
    table = parse_volume_table("V 1 1 : 1/6 pi2 ; 1/24 b1^2\n")
    assert table.volume(1, 1, [0]) == PiRat.pi2(1, Fraction(1, 6))


def test_parse_comments_and_blank_lines():
    text = "# header\n\nV 1 1 : 1/6 pi2 ; 1/24 b1^2  # trailing note\n\n"
    table = parse_volume_table(text)
    assert table.get(1, 1).nvars == 1


def test_parse_repeated_exponent_tuples_accumulate():
    table = parse_volume_table("V 1 1 : 1/12 pi2 ; 1/12 pi2 ; 1/24 b1^2")
    assert table.volume(1, 1, [0]) == PiRat.pi2(1, Fraction(1, 6))


def test_parse_rejects_negative_coefficient():
    with pytest.raises(ValueError, match="line 2.*strictly positive"):
        parse_volume_table("V 1 1 : 1/6 pi2 ; 1/24 b1^2\nV 0 4 : -2 pi2")


def test_parse_rejects_odd_boundary_exponent():
    with pytest.raises(ValueError, match="even exponent"):
        parse_volume_table("V 1 1 : 1/24 b1^3")
    with pytest.raises(ValueError, match="bad token"):
        parse_volume_table("V 1 1 : 1/24 b1")


def test_parse_rejects_bad_token():
    with pytest.raises(ValueError, match="line 1: bad token 'q'"):
        parse_volume_table("V 1 1 : 1/6 q")


def test_parse_rejects_two_rationals():
    with pytest.raises(ValueError, match="two rational factors"):
        parse_volume_table("V 1 1 : 1/6 1/2 pi2")


def test_parse_rejects_missing_coefficient():
    with pytest.raises(ValueError, match="lacks a rational coefficient"):
        parse_volume_table("V 1 1 : pi2")


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ValueError, match="b2 out of range"):
        parse_volume_table("V 1 1 : 1/24 b2^2")


def test_parse_rejects_excess_degree():
    # 3g-3+n = 1 for (1,1), so b1^4 is out
    with pytest.raises(ValueError, match="degree 2 exceeds 1"):
        parse_volume_table("V 1 1 : 1/24 b1^4")


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="line 1"):
        parse_volume_table("W 1 1 : 1")
    with pytest.raises(ValueError, match="line 1"):
        parse_volume_table("V one 1 : 1")


def test_load_from_path(tmp_path):
    path = tmp_path / "vols.txt"
    path.write_text("V 1 1 : 1/6 pi2 ; 1/24 b1^2\n")
    table = volume_table_load(path)
    assert table.volume(1, 1, [0]) == PiRat.pi2(1, Fraction(1, 6))
    with pytest.raises(OSError):
        volume_table_load(tmp_path / "missing.txt")


def test_volume_table_constructor_copies():
    base = volume_table_load()
    table = VolumeTable(base.entries)
    assert table.volume(1, 1, [0]) == base.volume(1, 1, [0])
