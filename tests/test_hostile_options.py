"""Hostile option values, as text, through `cli.main`: each option of the
`congestion`, `dimension`, `sweep` and `simulate` commands, given a bool,
NaN, an infinity, -0.0, a value of the wrong sign, 1e300, 1e-300 or a huge
integer, ends in an exit code of 0, 2 (usage), 3, 4 or 5, and no exception
leaves `main`: a library error that no prbdim check named fails here
instead of passing as a validation error.

No case asks for what an allocator could grant: a count is small, or of at
least 2^50 elements, so a missing size refusal fails at once instead of
swapping."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from prbdim.cli import main
from prbdim.scenario_io import bundled_scenario_path

FIG3 = str(bundled_scenario_path("fig3"))

# texts that are no number, or a number outside some option's domain
TEXTS = ["True", "False", "nan", "inf", "-inf", "-0.0", "1e300", "1e-300", "-1e-300", "-2.5"]
HOSTILE = st.one_of(st.sampled_from(TEXTS),
                    st.integers(-3, 3).map(str),
                    st.integers(2 ** 50, 2 ** 80).map(str),
                    st.integers(-2 ** 80, -2 ** 50).map(str))

# per command: its argv with small, valid values, and each option a hostile
# value replaces, with the arguments that it needs beside it
COMMANDS = {
    "congestion": (["congestion", "--scenario", FIG3, "--realizations", "4", "--m-max", "3",
                    "--out", "-"],
                   {"--seed": [], "--realizations": [], "--m-max": [],
                    "--mc-replications": ["--with-mc"]}),
    "dimension": (["dimension", "--scenario", FIG3, "--target", "0.05", "--realizations", "4"],
                  {"--seed": [], "--realizations": [], "--target": [], "--tau-mbps": [],
                   "--outdoor-fraction": [], "--m-ceiling": []}),
    "sweep": (["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "4",
               "--out", "-"],
              {"--seed": [], "--realizations": [], "--target": [], "--tau-grid-mbps": [],
               "--lambda-grid-per-km": [], "--outdoor-fraction": [], "--m-ceiling": []}),
    "simulate": (["simulate", "--scenario", FIG3, "--replications", "100", "--m-max", "3",
                  "--out", "-"],
                 {"--seed": [], "--replications": [], "--m-max": []}),
}


def exit_code(argv: list[str]) -> int:
    """main's exit code for argv, argparse's usage exit included, its
    output discarded; any other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def with_value(command: str, option: str, value: str) -> list[str]:
    base, options = COMMANDS[command]
    argv = list(base)
    if option in argv:
        del argv[argv.index(option):argv.index(option) + 2]
    return argv + options[option] + [option, value]


@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, options) in COMMANDS.items() for option in options])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(value=HOSTILE)
def test_each_option_answers_a_hostile_value_with_an_exit_code(command, option, value):
    assert exit_code(with_value(command, option, value)) in {0, 2, 3, 4, 5}


# every text is tried on every option, ahead of the generated values
for text in TEXTS:
    test_each_option_answers_a_hostile_value_with_an_exit_code = example(value=text)(
        test_each_option_answers_a_hostile_value_with_an_exit_code)


# each was refused in units nobody typed (`throughput_bps inf`, `user_intensity_area inf`)
@pytest.mark.parametrize("argv, message", [
    (["dimension", "--scenario", FIG3, "--target", "0.05", "--tau-mbps", "1e306"],
     "throughput_mbps 1e+306 is beyond double precision in bit/s"),
    (["sweep", "--scenario", FIG3, "--target", "0.05", "--tau-grid-mbps", "10,1e306",
      "--out", "-"], "throughput_mbps 1e+306 is beyond double precision in bit/s"),
    (["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "4",
      "--lambda-grid-per-km", "1e-320", "--out", "-"], "road_intensity 9.99989e-321 and"),
])
def test_an_option_beyond_double_precision_is_named_as_given(argv, message, capsys):
    assert main(argv) == 3
    assert message in capsys.readouterr().err
