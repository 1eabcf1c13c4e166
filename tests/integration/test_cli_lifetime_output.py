"""``repro lifetime`` closed-form output, pinned byte for byte.

The expected reports were recorded from the command's own scheme and
attack ladder; they guard the mapping of ``--regions`` / ``--interval`` /
``--subregions`` / ``--inner`` / ``--outer`` / ``--stages`` onto the
lifetime models, the text and ``--json`` reports (including the
``endurance`` / ``n_lines`` keys), Security RBSG's "resists RTA by
design" answer and the ``unsupported pair`` exit for every scheme and
attack choice without a model.
"""

import pytest

from repro.cli import main

CASES = [
    (
        "--scheme none --attack raa",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : none / RAA\n"
        "lifetime        : 100.0 s (0.0% of ideal)\n",
    ),
    (
        "--scheme none --attack raa --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 2.384185791015625e-07, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 100000000000.0, '
        '"n_lines": 4194304, '
        '"scheme": "none"}\n',
    ),
    (
        "--scheme rbsg --attack raa",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : rbsg / RAA\n"
        "lifetime        : 152 days (3.1% of ideal)\n",
    ),
    (
        "--scheme rbsg --attack raa --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.0312502384185791, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 1.31073e+16, '
        '"n_lines": 4194304, '
        '"scheme": "rbsg"}\n',
    ),
    (
        "--scheme rbsg --attack rta",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : rbsg / RTA\n"
        "lifetime        : 477.7 s (0.0% of ideal)\n",
    ),
    (
        "--scheme rbsg --attack rta --json",
        '{"attack": "rta", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 1.1390435791015625e-06, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 477749504000.0, '
        '"n_lines": 4194304, '
        '"scheme": "rbsg"}\n',
    ),
    (
        "--scheme two-level-sr --attack raa",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : two-level-sr / RAA\n"
        "lifetime        : 3263 days (67.2% of ideal)\n",
    ),
    (
        "--scheme two-level-sr --attack raa --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.6721609597101426, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 2.81924740195609e+17, '
        '"n_lines": 4194304, '
        '"scheme": "two-level-sr"}\n',
    ),
    (
        "--scheme two-level-sr --attack rta",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : two-level-sr / RTA\n"
        "lifetime        : 10 days (0.2% of ideal)\n",
    ),
    (
        "--scheme two-level-sr --attack rta --json",
        '{"attack": "rta", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.002061855670103093, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 864804948453608.2, '
        '"n_lines": 4194304, '
        '"scheme": "two-level-sr"}\n',
    ),
    (
        "--scheme security-rbsg --attack raa",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : security-rbsg / RAA\n"
        "lifetime        : 3263 days (67.2% of ideal)\n",
    ),
    (
        "--scheme security-rbsg --attack raa --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.6720950081543299, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 2.8189707810817382e+17, '
        '"n_lines": 4194304, '
        '"scheme": "security-rbsg"}\n',
    ),
    (
        "--scheme security-rbsg --attack rta",
        "Security RBSG resists RTA by design: with a secure stage "
        "count the DFN keys rotate before detection completes "
        "(see `python -m repro stages`).\n",
    ),
    (
        "--scheme security-rbsg --attack rta --json",
        '{"attack": "rta", '
        '"lifetime_ns": null, '
        '"resists_rta": true, '
        '"scheme": "security-rbsg"}\n',
    ),
    (
        "--scheme rbsg --attack rta --regions 8 --interval 50",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : rbsg / RTA\n"
        "lifetime        : 0.2 h (0.0% of ideal)\n",
    ),
    (
        "--scheme rbsg --attack raa --regions 64 --interval 10 --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.0156252384185791, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 6553700000000000.0, '
        '"n_lines": 4194304, '
        '"scheme": "rbsg"}\n',
    ),
    (
        "--scheme two-level-sr --attack rta --subregions 256 "
        "--inner 32 --outer 64",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : two-level-sr / RTA\n"
        "lifetime        : 21 days (0.4% of ideal)\n",
    ),
    (
        "--scheme two-level-sr --attack raa --subregions 1024 "
        "--inner 16 --outer 256 --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.8682638706116794, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 3.641762625562049e+17, '
        '"n_lines": 4194304, '
        '"scheme": "two-level-sr"}\n',
    ),
    (
        "--scheme security-rbsg --attack raa --subregions 256 "
        "--inner 32 --outer 64 --stages 5",
        "device          : 1 GB bank, E=1e+08 (ideal 4855 days)\n"
        "scheme / attack : security-rbsg / RAA\n"
        "lifetime        : 3263 days (67.2% of ideal)\n",
    ),
    (
        "--scheme security-rbsg --attack raa --stages 4 --json",
        '{"attack": "raa", '
        '"endurance": 100000000.0, '
        '"fraction_of_ideal": 0.6720950081543299, '
        '"ideal_ns": 4.194304e+17, '
        '"lifetime_ns": 2.8189707810817382e+17, '
        '"n_lines": 4194304, '
        '"scheme": "security-rbsg"}\n',
    ),
]

UNSUPPORTED = [
    "--scheme none --attack rta",
    "--scheme none --attack rta --json",
    "--scheme start-gap --attack raa",
    "--scheme start-gap --attack raa --json",
    "--scheme start-gap --attack rta",
    "--scheme start-gap --attack rta --json",
    "--scheme table --attack raa",
    "--scheme table --attack raa --json",
    "--scheme table --attack rta",
    "--scheme table --attack rta --json",
    "--scheme random-swap --attack raa",
    "--scheme random-swap --attack raa --json",
    "--scheme random-swap --attack rta",
    "--scheme random-swap --attack rta --json",
    "--scheme sr --attack raa",
    "--scheme sr --attack raa --json",
    "--scheme sr --attack rta",
    "--scheme sr --attack rta --json",
    "--scheme multiway-sr --attack raa",
    "--scheme multiway-sr --attack raa --json",
    "--scheme multiway-sr --attack rta",
    "--scheme multiway-sr --attack rta --json",
]


@pytest.mark.parametrize("argv, expected", CASES,
                         ids=[argv for argv, _ in CASES])
def test_report_is_unchanged(argv, expected, capsys):
    assert main(["lifetime", *argv.split()]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize("argv", UNSUPPORTED)
def test_unsupported_pair_message(argv, capsys):
    assert main(["lifetime", *argv.split()]) == 2
    scheme, attack = argv.split()[1::2][:2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unsupported pair: {scheme} / {attack}\n"


def test_attack_is_required_without_paper_scale(capsys):
    assert main(["lifetime", "--scheme", "rbsg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--attack is required without --paper-scale\n"
