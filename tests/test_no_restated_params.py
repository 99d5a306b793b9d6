"""No record restates a scalar param.

A report states each input once, in its ``params``.  A record field that
holds a param's value in every record is a copy of that input, not a
result.  For each scalar param that ``hjc.cli.PARAMS`` declares, and for
both values of its pair in ``test_no_inert_params.PAIRS``, no leaf of the
JSON records (a value inside objects and arrays, by its path) may hold the
param's value, as JSON text, in every record.  A list param such as
``thetas`` is left out: strings and grassmann state each of its items as
the coordinate of one record.
"""

import json

import pytest

from hjc import cli
from test_no_inert_params import PAIRS

SCALAR = [(command, f.name) for command, params in cli.PARAMS.items() for f in params.fields if not isinstance(f.kind, list)]


def _leaves(obj, path=()):
    """(path, JSON text) of every value that is no object or array."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, json.dumps(obj)


@pytest.mark.parametrize("command, name", SCALAR)
def test_no_record_field_holds_a_scalar_param_in_every_record(command, name, capsys):
    shared, *values = PAIRS[command, name]
    for value in values:
        assert cli.main([command, *shared, *value, "--format=json"]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        param = json.dumps(report["params"][name])
        records = [set(_leaves(rec)) for rec in report["records"]]
        assert records
        copies = [path for path, text in set.intersection(*records) if text == param]
        assert not copies, (value, copies)
