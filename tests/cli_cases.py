"""Every case of the sturmia command line: an argv, the exit code it ends
with, and one check each on stdout and stderr.

A check is a str, the exact text, or a compiled pattern, which must match
the whole text; the check on stderr defaults to "", nothing.
tests/test_cli.py runs every case in process through `sturmia.cli.dispatch`
and checks that every `sturmia` line of README's CLI examples is a case.
Run as a script, with the command that starts sturmia, this file runs every
case in a fresh process, prints each failure, and exits 1 if any case fails:

    python tests/cli_cases.py sturmia
    python tests/cli_cases.py python -m sturmia

Run it from outside the checkout, so that the installed package answers.  It
imports only the standard library.  STURMIA_DEPTH is unset for every case,
so an argv without --depth reads the default depth of 24.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import namedtuple

Case = namedtuple("Case", "argv code out err", defaults=("",))


def envelope(command: str, result: dict, **config) -> str:
    """The JSON envelope that `--format json` prints: json.dumps's bytes with
    sorted keys and an indent of 2.  config overrides the default settings."""
    config = {
        "check": True, "depth": 24, "format": "json", "intercept": None, "slope": None, **config
    }
    text = json.dumps({"command": command, "config": config, "result": result}, sort_keys=True, indent=2)
    return text + "\n"


def checked_rows(runs: list[tuple[int, int, str]]) -> list[dict]:
    """The rows of a cross-checked repetition table, from runs of equal rows
    given as (count, r, case): every row reads r_closed = r_direct = r."""
    rows = []
    for count, r, case in runs:
        for _ in range(count):
            rows.append({"case": case, "m": len(rows) + 1, "r_closed": r, "r_direct": r})
    return rows


# intercept 123 on [0;2,3,(1,2)*], through the table path and argparse's
# (--m-max=30) alike
INTERCEPT_123 = envelope(
    "repetition",
    {"failures": 0, "rows": checked_rows(
        [(1, 2, "7"), (1, 3, "7"), (3, 4, "7"), (2, 4, "4"), (16, 9, "1"), (4, 9, "8"), (3, 29, "8")]
    )},
    intercept="123",
    slope="[0;2,3,(1,2)*]",
)

# the Ostrowski digits of 100 on [0;2,1,3,(2,1)*] at the default depth
DIGITS_100 = "0,0,1,0,0,0,1" + ",0" * 17

# the first 400 letters of the characteristic word of [0;2,3,(1,2)*]
WORD_400 = (
    "01010100101010100101010100101010010101010010101010010101010010101001010101001010"
    "10100101010100101010010101010010101010010101001010101001010101001010101001010100"
    "10101010010101010010101010010101001010101001010101001010101001010100101010100101"
    "01010010101001010101001010101001010101001010100101010100101010100101010100101010"
    "01010101001010101001010101001010100101010100101010100101010010101010010101010010"
)

# Answers first, at least one per (subcommand, format) cell, then usage errors.
CASES = [
    Case(['word', 'prefix', '--slope', '[0;1*]', '--len', '8'], 0, '10110101\n'),
    Case(['word', 'prefix', '--slope', '[0;1*]', '--intercept', '2', '--len', '10'], 0, '1101011011\n'),
    Case(['word', 'standard', '--slope', '[0;1*]', '--level', '4'], 0, '10110\n'),
    # s_2 = s_1^2 s_0 of a first quotient of 10^6, spelled from blocks of
    # copies of s_0 = 0, as s_1 is too long to keep
    Case(['word', 'standard', '--slope', '[0;1000000,2*]', '--level', '2'], 0, ('0' * 999_999 + '1') * 2 + '0\n'),
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--len', '16'], 0, '0010010001001000\n'),
    Case(
        ['word', 'standard', '--slope', '[0;2,(1)*]', '--level', '4', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'word',
            {'length': 8, 'level': 4, 'word': '01001010'},
            depth=8,
            intercept='zero',
            slope='[0;2,(1)*]',
        ),
    ),
    Case(
        ['ostrowski', '--slope', '[0;1*]', '--encode', '10', '--depth', '8'],
        0,
        'value=10 digits=0,0,1,0,0,1,0,0 support=[2, 5]\n',
    ),
    Case(
        ['ostrowski', '--slope', '[0;1*]', '--decode', '0,0,1,0,1', '--format', 'json'],
        0,
        envelope('ostrowski', {'digits': [0, 0, 1, 0, 1], 'support': [2, 4], 'value': 7}, slope='[0;1*]'),
    ),
    Case(
        ['ostrowski', '--slope', '[0;1*]', '--encode', '10', '--depth', '6', '--format', 'csv'],
        0,
        'index,digit\n'
        '0,0\n'
        '1,0\n'
        '2,1\n'
        '3,0\n'
        '4,0\n'
        '5,1\n',
    ),
    # a finite slope encodes at its depth D = 3, not at the default depth
    Case(['ostrowski', '--slope', '[0;3,2,2]', '--encode', '5'], 0, 'value=5 digits=2,1,0 support=[0, 1]\n'),
    Case(['ostrowski', '--slope', '[0;3,2,2]', '--encode', '0'], 0, 'value=0 digits=0,0,0 support=[]\n'),
    Case(
        ['ostrowski', '--slope', '[0;3,2,2]', '--encode', '16', '--format', 'csv'],
        0,
        'index,digit\n'
        '0,2\n'
        '1,0\n'
        '2,2\n',
    ),
    Case(
        ['ostrowski', '--slope', '[0;1*]', '--encode', '100', '--format', 'json'],
        0,
        envelope(
            'ostrowski',
            {'digits': [0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1] + [0] * 13, 'support': [3, 5, 10], 'value': 100},
            slope='[0;1*]',
        ),
    ),
    Case(
        ['ostrowski', '--slope', '[0;2,1,3,(2,1)*]', '--encode', '100', '--format', 'json'],
        0,
        envelope(
            'ostrowski',
            {'digits': [0, 0, 1, 0, 0, 0, 1] + [0] * 17, 'support': [2, 6], 'value': 100},
            slope='[0;2,1,3,(2,1)*]',
        ),
    ),
    # the digits of 100 read back as 100
    Case(['ostrowski', '--slope', '[0;2,1,3,(2,1)*]', '--encode', '100'], 0, f'value=100 digits={DIGITS_100} support=[2, 6]\n'),
    Case(['ostrowski', '--slope', '[0;2,1,3,(2,1)*]', '--decode', DIGITS_100], 0, f'value=100 digits={DIGITS_100} support=[2, 6]\n'),
    Case(
        ['ostrowski', '--slope', '[0;2,1,3,(2,1)*]', '--decode', '1,0,0,1,0,2'],
        0,
        'value=84 digits=1,0,0,1,0,2 support=[0, 3, 5]\n',
    ),
    Case(
        ['intercept', '--slope', '[0;1*]', '--intercept', 'sigma0', '--depth', '10'],
        0,
        'digits=0,1,0,1,0,1,0,1,0,1\n'
        'support=[1, 3, 5, 7, 9] residue=88\n'
        'class=sigma0-tail witness=1\n'
        'complement unavailable: sigma intercepts are excluded from complementation\n',
    ),
    # shallow zero windows: the class verdict and the complement's refusal
    # agree at the smallest accepted depth as they do at depth 3
    Case(
        ['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '2'],
        0,
        'digits=0,0\n'
        'support=[] residue=0\n'
        'class=natural-integer witness=1\n'
        'complement unavailable: natural-integer windows have no complement\n',
    ),
    Case(
        ['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '3'],
        0,
        'digits=0,0,0\n'
        'support=[] residue=0\n'
        'class=natural-integer witness=1\n'
        'complement unavailable: natural-integer windows have no complement\n',
    ),
    Case(
        ['intercept', '--slope', '[0;2,(1)*]', '--intercept', 'b:0,1,0,0,1', '--depth', '5'],
        0,
        'digits=0,1,0,0,1\n'
        'support=[1, 4] residue=10\n'
        'class=non-zero witness=None\n'
        'complement=1,0,0,0\n',
    ),
    Case(
        ['intercept', '--slope', '[0;1*]', '--intercept', 'sigma0', '--depth', '4', '--format', 'json'],
        0,
        envelope(
            'intercept',
            {'class': 'sigma0-tail',
             'complement': {'error': 'sigma intercepts are excluded from complementation'},
             'depth': 4,
             'digits': [0, 1, 0, 1],
             'residue': 4,
             'support': [1, 3],
             'witness': 1},
            depth=4,
            intercept='sigma0',
            slope='[0;1*]',
        ),
    ),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '4'],
        0,
        'm=4 level=(n=4, l=0, r=2) cycles=(5, 3) common=3 turns=1\n',
    ),
    Case(
        ['rauzy', '--slope', '[0;3,2,2]', '--m', '3'],
        0,
        'm=3 level=(n=1, l=1, r=2) cycles=(3, 4) common=3 turns=1\n',
    ),
    # an integer intercept on a finite slope is encoded at its depth D = 3,
    # not at the default depth 24: these are the lines --depth 3 prints
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', '5', '--len', '3'], 0, '100\n'),
    Case(
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', '5'],
        0,
        'digits=2,1,0\n'
        'support=[0, 1] residue=5\n'
        'class=non-zero witness=None\n'
        'complement=0\n',
    ),
    Case(
        ['repetition', '--slope', '[0;3,2,2]', '--intercept', '5', '--m-max', '3'],
        0,
        'm,r_closed,r_direct,case\n'
        '1,2,2,6\n'
        '2,2,2,7\n'
        '3,4,4,7\n',
    ),
    # so is a named intercept, at min(depth, D): the lines --depth 3 prints
    Case(
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', 'zero'],
        0,
        'digits=0,0,0\n'
        'support=[] residue=0\n'
        'class=natural-integer witness=1\n'
        'complement unavailable: natural-integer windows have no complement\n',
    ),
    Case(
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', 'sigma0'],
        0,
        'digits=0,2,0\n'
        'support=[1] residue=6\n'
        'class=sigma0-tail witness=1\n'
        'complement unavailable: sigma intercepts are excluded from complementation\n',
    ),
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', 'sigma0', '--len', '3'], 0, '000\n'),
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', 'sigma1', '--len', '0'], 0, '\n'),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '10000'],
        0,
        'm=10000 level=(n=19, l=0, r=944) cycles=(6765, 4181) common=945 turns=1\n',
    ),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '4', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'rauzy',
            {'characteristic_turns': 1,
             'common_path_length': 3,
             'level': {'l': 0, 'n': 4, 'r': 2},
             'm': 4,
             'other_cycle_length': 3,
             'referent_cycle_length': 5},
            depth=8,
            slope='[0;1*]',
        ),
    ),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '2', '--format', 'dot'],
        0,
        'digraph rauzy {\n'
        '  "01" [peripheries=2];\n'
        '  "10" [shape=box];\n'
        '  "11";\n'
        '  "01" -> "10";\n'
        '  "01" -> "11" [style=bold];\n'
        '  "10" -> "01" [style=bold];\n'
        '  "11" -> "10" [style=bold];\n'
        '}\n',
    ),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '3', '--format', 'dot'],
        0,
        'digraph rauzy {\n'
        '  "010";\n'
        '  "011";\n'
        '  "101" [shape=box,peripheries=2];\n'
        '  "110";\n'
        '  "010" -> "101";\n'
        '  "011" -> "110" [style=bold];\n'
        '  "101" -> "010";\n'
        '  "101" -> "011" [style=bold];\n'
        '  "110" -> "101" [style=bold];\n'
        '}\n',
    ),
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '6'],
        0,
        'm=6 level=(n=4, l=0, r=0) cycles=(5, 3) common=1 turns=1\n',
    ),
    Case(
        ['rauzy', '--slope', '[0;2,3,(1,2)*]', '--m', '40', '--format', 'json'],
        0,
        envelope(
            'rauzy',
            {'characteristic_turns': 2, 'common_path_length': 18, 'level': {'l': 0, 'n': 5, 'r': 17},
             'm': 40, 'other_cycle_length': 25, 'referent_cycle_length': 34},
            slope='[0;2,3,(1,2)*]',
        ),
    ),
    # cycle lengths and turns need no vertex strings: the dot graph's 10001
    # strings of 10000 letters would pass the letter cap
    Case(
        ['rauzy', '--slope', '[0;1*]', '--m', '10000', '--format', 'json'],
        0,
        envelope(
            'rauzy',
            {'characteristic_turns': 1, 'common_path_length': 945, 'level': {'l': 0, 'n': 19, 'r': 944},
             'm': 10000, 'other_cycle_length': 4181, 'referent_cycle_length': 6765},
            slope='[0;1*]',
        ),
    ),
    Case(
        ['repetition', '--slope', '[0;1*]', '--intercept', '2', '--m-max', '4', '--depth', '8'],
        0,
        'm,r_closed,r_direct,case\n'
        '1,1,1,8\n'
        '2,3,3,4\n'
        '3,3,3,4\n'
        '4,5,5,2\n',
    ),
    Case(
        ['repetition', '--slope', '[0;1*]', '--m-max', '2', '--no-check', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'repetition',
            {'failures': 0,
             'rows': [{'case': '2', 'm': 1, 'r_closed': 2, 'r_direct': None},
                      {'case': '2', 'm': 2, 'r_closed': 3, 'r_direct': None}]},
            check=False,
            depth=8,
            intercept='zero',
            slope='[0;1*]',
        ),
    ),
    Case(
        ['repetition', '--slope', '[0;2,(1)*]', '--m-max', '3', '--format', 'text'],
        0,
        'm=1 r=2 direct=2 case=2\n'
        'm=2 r=3 direct=3 case=2\n'
        'm=3 r=3 direct=3 case=2\n',
    ),
    Case(
        ['repetition', '--slope', '[0;1*]', '--intercept', '0', '--m-max', '7'],
        0,
        'm,r_closed,r_direct,case\n'
        '1,2,2,2\n'
        '2,3,3,2\n'
        '3,3,3,2\n'
        '4,5,5,2\n'
        '5,5,5,2\n'
        '6,5,5,2\n'
        '7,8,8,2\n',
    ),
    Case(
        ['repetition', '--slope', '[0;2,(1)*]', '--m-max', '5', '--format', 'json'],
        0,
        envelope(
            'repetition',
            {'failures': 0, 'rows': checked_rows([(1, 2, '2'), (2, 3, '2'), (2, 5, '2')])},
            intercept='zero',
            slope='[0;2,(1)*]',
        ),
    ),
    Case(['repetition', '--slope', '[0;2,3,(1,2)*]', '--intercept', '123', '--m-max', '30', '--format', 'json'], 0, INTERCEPT_123),
    Case(['repetition', '--slope', '[0;2,3,(1,2)*]', '--intercept', '123', '--m-max=30', '--format', 'json'], 0, INTERCEPT_123),
    # one walk through levels 2 to 17 of the golden slope
    Case(
        ['repetition', '--slope', '[0;1*]', '--intercept', '12345', '--m-max', '3000', '--depth', '30', '--format', 'json'],
        0,
        envelope(
            'repetition',
            {'failures': 0, 'rows': checked_rows([
                (1, 2, '4'), (1, 3, '2'), (1, 4, '2'), (2, 5, '2'), (1, 7, '2'), (4, 8, '2'), (1, 12, '2'),
                (7, 13, '2'), (1, 20, '2'), (13, 21, '1'), (20, 21, '8'), (1, 54, '8'), (34, 54, '4'),
                (20, 89, '2'), (35, 109, '2'), (54, 144, '2'), (35, 198, '2'), (144, 233, '1'),
                (198, 233, '8'), (35, 575, '8'), (377, 610, '1'), (198, 610, '8'), (412, 1185, '8'),
                (987, 1185, '4'), (198, 2584, '2'), (220, 2782, '2'),
            ])},
            depth=30,
            intercept='12345',
            slope='[0;1*]',
        ),
    ),
    # the cross-check reads the longest prefix the window's word certifies
    # (max_certified_length): 6 of the 8 rows get r_direct
    Case(
        ['repetition', '--slope', '[0;1,1,1,1,1,1,1,1]', '--intercept', '19', '--depth', '7', '--m-max', '8'],
        0,
        'm,r_closed,r_direct,case\n'
        '1,2,2,4\n'
        '2,3,3,1\n'
        '3,3,3,1\n'
        '4,3,3,8\n'
        '5,3,3,8\n'
        '6,7,7,8\n'
        '7,8,,1\n'
        '8,8,,1\n',
    ),
    Case(['factorize', '--word', '0001'], 0, '00 01\n'),
    Case(['factorize', '--word', '10000'], 0, "no factorization: leftover '10000' at 0\n"),
    Case(
        ['factorize', '--slope', '[0;1*]', '--intercept', 'b:0,0,1,0,1,0,0,1,0,0,0,1', '--len', '20'],
        0,
        'duality ok=True prefix_ok=True orbit_ok=True length=20\n',
    ),
    Case(['factorize', '--slope', '[0;2,3,(1,2)*]', '--len', '30'], 0, 'case=a1>=2 ok=True length=30\n'),
    Case(['factorize', '--slope', '[0;3,2,2]', '--len', '10'], 0, 'case=a1>=2 ok=True length=10\n'),
    Case(
        ['factorize', '--word', '0110', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'factorize',
            {'blocks': ['01'], 'complete': False, 'failure_at': 2, 'leftover': '10', 'word': '0110'},
            depth=8,
        ),
    ),
    Case(
        ['factorize', '--slope', '[0;1*]', '--len', '12', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'factorize',
            {'case': 'a1=1,a2=1', 'first': '101101011011', 'ok': True, 'second': '101101011011'},
            depth=8,
            slope='[0;1*]',
        ),
    ),
    Case(
        ['factorize', '--slope', '[0;2,3,(1,2)*]', '--format', 'json'],
        0,
        envelope(
            'factorize',
            {'case': 'a1>=2', 'first': WORD_400, 'ok': True, 'second': WORD_400},
            slope='[0;2,3,(1,2)*]',
        ),
    ),
    Case(['factorize', '--slope', '[0;2,3,(1,2)*]', '--len', '400'], 0, 'case=a1>=2 ok=True length=400\n'),
    # the complement window's product holds 59 letters
    Case(
        ['factorize', '--slope', '[0;1*]', '--intercept', 'b:0,0,1,0,1,0,0,1,0,0,0,1', '--len', '59'],
        0,
        'duality ok=True prefix_ok=True orbit_ok=True length=59\n',
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '7', '--k-max', '3', '--depth', '8'],
        1,
        (
            '{\n'
            '  "command": "torsion",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "found": false,\n'
            '    "k": null,\n'
            '    "modulus": 7,\n'
            '    "n": 0,\n'
            '    "quotient_digits": null,\n'
            '    "reason": "no admissible k <= 3 from n = 0",\n'
            '    "state_trace": [\n'
            '      [\n'
            '        1,\n'
            '        0\n'
            '      ],\n'
            '      [\n'
            '        1,\n'
            '        1\n'
            '      ],\n'
            '      [\n'
            '        2,\n'
            '        1\n'
            '      ],\n'
            '      [\n'
            '        3,\n'
            '        2\n'
            '      ]\n'
            '    ],\n'
            '    "support": null\n'
            '  }\n'
            '}\n'
        ),
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '2', '--format', 'text'],
        0,
        'N=2 n=0 k=3 support=[1] digits=[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n',
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '7', '--k-max', '3', '--format', 'text'],
        1,
        'N=7 n=0: no admissible k <= 3 (no admissible k <= 3 from n = 0)\n',
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '65', '--format', 'text'],
        1,
        'N=65 n=0: no admissible k <= 40 (no admissible k <= 40 from n = 0)\n',
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '2'],
        0,
        envelope(
            'torsion',
            {'found': True, 'k': 3, 'modulus': 2, 'n': 0, 'quotient_digits': [0, 1] + [0] * 40, 'reason': '',
             'state_trace': [[1, 0], [1, 1], [0, 1], [1, 0]], 'support': [1]},
            slope='[0;1*]',
        ),
    ),
    # a search that finds nothing is a failed verification
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '7', '--k-max', '3'],
        1,
        envelope(
            'torsion',
            {'found': False, 'k': None, 'modulus': 7, 'n': 0, 'quotient_digits': None,
             'reason': 'no admissible k <= 3 from n = 0', 'state_trace': [[1, 0], [1, 1], [2, 1], [3, 2]],
             'support': None},
            slope='[0;1*]',
        ),
    ),
    Case(
        ['torsion', '--slope', '[0;1*]', '-N', '4096', '--format', 'text'],
        1,
        'N=4096 n=0: no admissible k <= 40 (no admissible k <= 40 from n = 0)\n',
    ),
    # without --n the search starts at the default rank, here n0 = 1
    Case(
        ['torsion', '--slope', '[0;2,1,3,(2,1)*]', '-N', '9', '--format', 'text'],
        0,
        'N=9 n=1 k=21 support=[3, 5, 7, 9, 11, 14, 15, 19] digits=[0, 0, 0, 2, 0, 2, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n',
    ),
    Case(
        ['verify', '--only', '1'],
        0,
        '# corpus seed 20260814\n'
        '[PASS] criterion  1 ostrowski-round-trip: 71201 integers round-tripped on 10 slopes; depth-7 bijection exhaustive\n',
    ),
    Case(
        ['verify', '--only', '8'],
        0,
        '# corpus seed 20260814\n'
        '[PASS] criterion  8 characteristic-factorizations: three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes\n',
    ),
    Case(
        ['verify', '--only', '8', '--only', '13'],
        0,
        '# corpus seed 20260814\n'
        '[PASS] criterion  8 characteristic-factorizations: three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes\n'
        '[PASS] criterion 13 dio-estimate: golden window value 2.617991 within 1e-3 of 1+phi; family/generic gap below one window term on two slopes\n',
    ),
    Case(
        ['verify', '--only', '8', '--depth', '8', '--format', 'json'],
        0,
        envelope(
            'verify',
            {'passed': True,
             'results': [{'detail': 'three quotient cases verified to length 400; central split '
                                    'holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on '
                                    '5 slopes',
                          'name': 'characteristic-factorizations',
                          'number': 8,
                          'passed': True}],
             'seed': 20260814},
            depth=8,
        ),
    ),
    Case(
        ['verify', '--only', '13', '--only', '8', '--format', 'csv'],
        0,
        '# seed=20260814\n'
        'number,name,passed,detail\n'
        '13,dio-estimate,1,"golden window value 2.617991 within 1e-3 of 1+phi; family/generic gap below one window term on two slopes"\n'
        '8,characteristic-factorizations,1,"three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes"\n',
    ),
    Case(['--help'], 0, re.compile(r"usage: sturmia \[-h\].*", re.S)),
    # usage errors: exit 2, nothing on stdout and one line on stderr, or
    # argparse's usage and error
    Case(['word', 'prefix', '--slope', '[0;1*]', '--bogus'], 2, '', re.compile(r"usage: sturmia \[-h\].*\nsturmia: error: unrecognized arguments: --bogus\n", re.S)),
    Case(
        ['word', 'prefix', '--slope', '[0;1*]', '--format', 'dot'],
        2,
        '',
        re.compile(r"usage: sturmia word \[-h\].*\nsturmia word: error: argument --format: invalid choice: 'dot' .*\n", re.S),
    ),
    Case(['word', 'prefix', '--slope', 'bogus', '--len', '8'], 2, '', "error: not a slope literal: 'bogus'\n"),
    Case(['word', 'standard', '--slope', '[0;1*]', '--level', '1000000000'], 2, '', 'error: standard word s_1000000000 has more than 100000000 letters\n'),
    Case(['repetition', '--slope', '[0;1*]', '--m-max', '0', '--no-check'], 2, '', 'error: --m-max must be >= 1, got 0\n'),
    Case(['word', 'prefix', '--slope', 'bogus'], 2, '', "error: not a slope literal: 'bogus'\n"),
    Case(['word', 'standard', '--slope', '[0;1*]', '--level', '2000'], 2, '', 'error: standard word s_2000 has more than 100000000 letters\n'),
    Case(['word', 'prefix', '--slope', '[0;1000*]', '--len', '100000001'], 2, '', 'error: prefix of length 100000001 has more than 100000000 letters\n'),
    Case(['factorize', '--slope', '[0;1000*]', '--len', '100000001'], 2, '', 'error: prefix of length 100000001 has more than 100000000 letters\n'),
    Case(['factorize', '--slope', '[0;3,2,2]', '--len', '17'], 2, '', 'error: prefix of length 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['ostrowski', '--slope', '[0;1*]', '--decode', ''], 2, '', "error: bad digit list ''\n"),
    Case(['ostrowski', '--slope', '[0;1*]', '--decode', '2,0'], 2, '', 'error: b_1=2 out of range\n'),
    Case(['ostrowski', '--slope', '[0;1*]', '--encode', '100', '--depth', '6'], 2, '', 'error: 100 >= q_6 = 13; increase depth\n'),
    Case(['ostrowski', '--slope', '[0;3,2,2]', '--encode', '17'], 2, '', 'error: shift 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['intercept', '--slope', '[0;1*]', '--intercept', 'b:'], 2, '', "error: bad digit list in intercept spec 'b:'\n"),
    Case(['intercept', '--slope', '[0;1*]', '--intercept', 'nope'], 2, '', "error: intercept spec 'nope' is not an integer, a b: digit list, or one of zero|sigma0|sigma1\n"),
    Case(['rauzy', '--slope', '[0;1*]', '--m', '0'], 2, '', 'error: window length must be >= 1, got 0\n'),
    Case(['rauzy', '--slope', '[0;1', '--m', '3', '--format', 'dot'], 2, '', "error: not a slope literal: '[0;1'\n"),
    Case(['rauzy', '--slope', '[0;1*]', '--m', '10000', '--format', 'dot'], 2, '', 'error: window length 10000 needs 100010000 letters, more than 100000000\n'),
    Case(['rauzy', '--slope', '[0;3,2,2]', '--m', '30'], 2, '', 'error: window length 30 needs more than the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['rauzy', '--slope', '[0;3,2,2]', '--m', '5'], 2, '', 'error: window length 5 needs more than the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['rauzy', '--slope', '[0;41,44,29]', '--m', '5000'], 2, '', 'error: window length 5000 needs more than the 52385 letters the word of [0;41,44,29] certifies\n'),
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--len', '20'], 2, '', 'error: prefix of length 20 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', '17', '--len', '3'], 2, '', 'error: shift 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    Case(['repetition', '--slope', '[0;1*]', '--m-max', '0'], 2, '', 'error: --m-max must be >= 1, got 0\n'),
    Case(['repetition', '--slope', '[0;1000*]', '--intercept', 'zero', '--depth', '4', '--no-check', '--m-max', '100000'], 2, '', 'error: --m-max must be at most 10000, got 100000\n'),
    Case(['factorize', '--word', '0201'], 2, '', "error: --word expects a binary word, got '0201'\n"),
    Case(['factorize', '--len', '40'], 2, '', 'error: --slope is required unless --word is given\n'),
    Case(['factorize', '--slope', '[0;1*]', '--intercept', 'sigma0'], 2, '', 'error: sigma intercepts are excluded from complementation\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '1'], 2, '', 'error: modulus must be >= 2, got 1\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '0', '--n', '4'], 2, '', 'error: modulus must be >= 2, got 0\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '1', '--n', '4'], 2, '', 'error: modulus must be >= 2, got 1\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '6250'], 2, '', 'error: the state cycle mod 6250 does not close within 32768 levels; give n\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '3', '--n', '100000000'], 2, '', 'error: rank n + k_max = 100000040 is out of reach: continuants through q_100000042 would hold more than 33554432 bits\n'),
    Case(['torsion', '--slope', '[0;1*]', '-N', '3', '--n', '30000'], 2, '', 'error: rank n + k_max = 30040 is out of reach: continuants through q_30042 would hold more than 33554432 bits\n'),
    Case(['ostrowski', '--slope', '[0;1*]', '--encode', '5', '--depth', '100000'], 2, '', 'error: continuants through q_100000 would hold more than 33554432 bits\n'),
    Case(['verify', '--only', '99'], 2, '', 'error: criteria are numbered 1..14, got 99\n'),
    Case(['verify', '--depth', '-1', '--only', '8', '--format', 'json'], 2, '', 'error: --depth must be at least 2, got -1\n'),
    Case(['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '1'], 2, '', 'error: --depth must be at least 2, got 1\n'),
    Case(['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '1000000000000'], 2, '', 'error: continuants through q_1000000000000 would hold more than 33554432 bits\n'),
    Case(['repetition', '--slope', '[0;1*]', '--depth', '1000000000000'], 2, '', 'error: continuants through q_1000000000000 would hold more than 33554432 bits\n'),
    Case(['factorize', '--word', '0001', '--slope', 'bogus', '--format', 'json'], 2, '', "error: not a slope literal: 'bogus'\n"),
]


def passes(check, text: str) -> bool:
    """Whether text passes a check: equals the str, or matches the pattern whole."""
    return text == check if isinstance(check, str) else check.fullmatch(text) is not None


def main(command: list[str]) -> int:
    """Run every case as `command + argv` in a fresh process; 1 if any fails."""
    env = {name: value for name, value in os.environ.items() if name != "STURMIA_DEPTH"}
    start = time.perf_counter()
    failed = 0
    for case in CASES:
        proc = subprocess.run([*command, *case.argv], capture_output=True, text=True, env=env)
        if proc.returncode == case.code and passes(case.out, proc.stdout) and passes(case.err, proc.stderr):
            continue
        failed += 1
        print(
            f"FAIL {shlex.join(case.argv)}: exit {proc.returncode}, expected {case.code}\n"
            f"  stdout {proc.stdout[:400]!r}\n  stderr {proc.stderr[:400]!r}"
        )
    seconds = time.perf_counter() - start
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed in {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARG ...], e.g. sturmia or python -m sturmia")
    sys.exit(main(sys.argv[1:]))
