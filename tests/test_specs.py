import math

import numpy as np
import pytest

from cesaro import specs


def test_parse_returns_the_name_and_its_typed_argument():
    assert specs.parse("weight spec", " gamma: 2.5 ", specs.WEIGHTS) == ("gamma", 2.5)
    assert specs.parse("weight spec", "unit", specs.WEIGHTS) == ("unit", None)
    assert specs.parse("weight spec", "table:w.csv", specs.WEIGHTS) == ("table", "w.csv")
    assert specs.parse("norm tag", "ksup:3", specs.NORM_TAGS) == ("ksup", 3)
    assert specs.parse("witness spec", "random:5", specs.WITNESSES) == ("random", 5)
    assert specs.parse_arg("nu", "0.4,0.8", "re[,im]") == complex(0.4, 0.8)
    assert specs.parse_arg("nu", "-1", "re[,im]") == complex(-1.0, 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        "gauss:1",  # unknown name
        "",  # no name
        "gamma",  # missing argument
        "gamma:",  # empty argument
        "unit:1",  # extra argument
        "unit:",  # extra separator
        "gamma:abc",  # unparsable argument
        "logpow:1.5",
    ],
)
def test_every_malformed_spec_gets_the_one_message(spec):
    expected = "unit | gamma:<float> | logpow:<int> | table:<path>"
    with pytest.raises(ValueError) as err:
        specs.parse("weight spec", spec, specs.WEIGHTS)
    assert str(err.value) == f"bad weight spec {spec!r}; expected {expected}"


@pytest.mark.parametrize("text", ["", "x", "1,2,3", "1,"])
def test_nu_is_re_or_re_im(text):
    with pytest.raises(ValueError, match=r"^bad nu .*; expected <re\[,im\]>$"):
        specs.parse_arg("nu", text, "re[,im]")


@pytest.mark.parametrize("value", [1, 7, np.int64(1), np.uint8(7)], ids=repr)
def test_count_returns_an_integer_of_at_least_its_bound_as_given(value):
    assert specs.count(value, 1, "bad") is value


@pytest.mark.parametrize(
    "value", [0, -1, 1.0, np.float64(1.0), True, np.bool_(True), math.nan, math.inf, "1", None, 1 + 0j], ids=repr
)
def test_count_refuses_everything_else_with_the_given_message(value):
    with pytest.raises(ValueError, match="^bad$"):
        specs.count(value, 1, "bad")


@pytest.mark.parametrize("text", ["0", "-2", "2.5", "nan"])
def test_a_random_witness_count_is_a_positive_integer(text):
    with pytest.raises(ValueError, match=rf"^bad witness spec 'random:{text}'; expected "):
        specs.parse("witness spec", f"random:{text}", specs.WITNESSES)
