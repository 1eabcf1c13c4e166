"""``repro simulate`` text output, pinned byte for byte.

The expected reports were recorded from the command's own scheme and
attack construction; they guard the argument mapping (``--regions`` /
``--interval`` / ``--stages``, the outer interval at twice the inner
one, ``--target``, ``--seed``) and every line of the report.
"""

import pytest

from repro.cli import main

CASES = [
    (
        "none raa --lines 64 --endurance 500 --budget 10000",
        "scheme / attack : none / RAA\n"
        "device          : 64 lines, E=500\n"
        "FAILED line 5 after 500 attacker writes = 0.0 s\n",
    ),
    (
        "rbsg rta --lines 256 --endurance 5e3",
        "scheme / attack : rbsg / RTA-RBSG\n"
        "device          : 256 lines, E=5000\n"
        "FAILED line 42 after 9433 attacker writes = 0.0 s\n"
        "side-channel detection cost: 4480 writes\n",
    ),
    (
        "sr raa --lines 64 --endurance 1e9 --budget 5000",
        "scheme / attack : sr / RAA\n"
        "device          : 64 lines, E=1e+09\n"
        "survived the 5000-write budget (0.0 s)\n",
    ),
    (
        "security-rbsg bpa --lines 128 --endurance 2000 --regions 4 "
        "--interval 8 --stages 3 --seed 3",
        "scheme / attack : security-rbsg / BPA\n"
        "device          : 128 lines, E=2000\n"
        "FAILED line 128 after 101756 attacker writes = 0.1 s\n",
    ),
    (
        "sr rta --lines 128 --endurance 5e3 --target 0",
        "scheme / attack : sr / RTA-SR\n"
        "device          : 128 lines, E=5000\n"
        "FAILED line 0 after 361432 attacker writes = 0.2 s\n"
        "side-channel detection cost: 277032 writes\n",
    ),
    (
        "rbsg raa --lines 128 --endurance 3000 --regions 4 --interval 32 "
        "--target 9",
        "scheme / attack : rbsg / RAA\n"
        "device          : 128 lines, E=3000\n"
        "FAILED line 113 after 69078 attacker writes = 0.1 s\n",
    ),
    (
        "security-rbsg raa --lines 128 --endurance 1500 --interval 4",
        "scheme / attack : security-rbsg / RAA\n"
        "device          : 128 lines, E=1500\n"
        "FAILED line 16 after 93770 attacker writes = 0.1 s\n",
    ),
]


@pytest.mark.parametrize("argv, expected", CASES,
                         ids=[argv for argv, _ in CASES])
def test_report_is_unchanged(argv, expected, capsys):
    scheme, attack, *rest = argv.split()
    assert main(["simulate", "--scheme", scheme, "--attack", attack,
                 *rest]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_unsupported_pair_message(capsys):
    assert main(["simulate", "--scheme", "security-rbsg",
                 "--attack", "rta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unsupported pair: security-rbsg / rta\n"
