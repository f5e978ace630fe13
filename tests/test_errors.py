"""The error classes map one to one onto the exit codes 1 to 6, and every
one survives pickling with its message, exit code and attributes: an error
raised in an ablation worker process crosses to the CLI that way.
``errors.check_ranges`` words every range and choice rejection, so each
names its key, and no other module of the package words one itself."""

import ast
import importlib
import inspect
import math
import pickle
import re
from pathlib import Path

import pytest

from psdlab import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.PsdError)]
INSTANCES = ([c("something went wrong") for c in CLASSES if c is not errors.DivergenceError]
             + [errors.DivergenceError(17), errors.DivergenceError(17, "loss is nan at step 17")])


PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src/psdlab").glob("*.py"))


def all_subclasses(cls) -> set:
    return {cls}.union(*(all_subclasses(sub) for sub in cls.__subclasses__()))


def test_one_class_per_exit_code():
    # The CLI catches PsdError and exits with its code, so a second class
    # for one code would only be a second name for the same outcome.
    for path in PACKAGE:
        importlib.import_module(f"psdlab.{path.stem}")
    assert all_subclasses(errors.PsdError) == set(CLASSES)
    assert sorted(c.exit_code for c in CLASSES) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("err", INSTANCES, ids=lambda e: f"{type(e).__name__}-{e}")
def test_round_trips_through_pickle(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.exit_code == err.exit_code
    assert vars(back) == vars(err)


@pytest.mark.parametrize("interval, inside, outside", [
    ("[0, 1]", [0, 0.5, 1], [-1e-300, 1.5, math.nan]),
    ("[0, 1)", [0, 0.999], [1, math.nan]),
    ("(0, inf)", [1e-300, 1e300], [0, -1.0, math.inf, math.nan]),
    ("[2, 16777216]", [2, 1 << 24], [1, (1 << 24) + 1]),
])
def test_within_takes_in_the_ends_its_brackets_name(interval, inside, outside):
    for value in inside:
        errors.check_ranges([errors.within("key", value, interval)])
    for value in outside:
        with pytest.raises(errors.InvalidInputError,
                           match=re.escape(f"key must lie in {interval}, got {value!r}")):
            errors.check_ranges([errors.within("key", value, interval)])


def test_first_failing_row_is_raised():
    rows = [("a", 1, True, "be odd"), ("b", "x", False, "be one of ('y',)"),
            ("c", 0, False, "lie in [1, inf)")]
    with pytest.raises(errors.InvalidInputError, match=re.escape("b must be one of ('y',), got 'x'")):
        errors.check_ranges(rows)


RULE_WORDS = re.compile(r"must\s+(lie\s+in|be\s+one\s+of)\b")


def worded_rules(source: str) -> list[int]:
    """The lines of ``source`` whose string, an f-string's literal parts
    joined, words a range or choice rule (``must lie in``, ``must be one
    of``); docstrings are prose, not messages, and do not count."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "{}".join(v.value for v in node.values if isinstance(v, ast.Constant))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if id(node) not in docstrings and RULE_WORDS.search(text):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_scan_finds_a_worded_rule():
    source = ('"""Module text: alpha must lie in [0, 1]."""\n'
              "def plan(alpha, mode):\n"
              '    """Its alpha must be one of the rows."""\n'
              "    if not 0 <= alpha <= 1:\n"
              '        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")\n'
              "    if mode not in MODES:\n"
              '        raise ValueError(f"mode must be one of {MODES}, "\n'
              '                         f"got {mode!r}")\n'
              '    check_ranges([within("alpha", alpha, "[0, 1]")])\n'
              '    return "a plan must lie within its batch"\n')
    assert worded_rules(source) == [5, 7]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_the_checker_words_a_range_or_choice_rule(path):
    # A rule worded by hand is a judge outside check_ranges; its rejection
    # need not name its key, nor fail NaN.
    assert worded_rules(path.read_text(encoding="utf-8")) == []
