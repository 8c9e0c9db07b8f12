"""Golden cube of ring sheaves, byte-compared.

`tests/golden/cube.json` holds, for each space of `SPACES`:

  * `sheaves`: `csheaf_to_json` of every sheaf of `sheaf_cube`, by flag;
  * `edges`: `sheafmap_to_json` of every edge of `sheaf_cube`, by
    `flag+height`;
  * `stalk_checks`: the `stalkwise_cube_check` report at every point of
    `iter_points(space, 2)`, with the differentials of `_cube_stalk_complex`
    there (`linmap_to_json`, by source degree).

`tests/golden/cube_rank1.json` and `cube_rank2.json` pin only dimensions;
this file pins the edge matrices and the homology as well.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cube_golden.py
"""

import json
import pathlib

from stonesheaf import serialize as ser
from stonesheaf.cube import _cube_stalk_complex, _shared_cube, sheaf_cube, stalkwise_cube_check
from stonesheaf.space import iter_points, parse_space

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cube.json"
SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
          "Cone(Sum(Finite(2),Finite(1)))", "Sum(Cone(Finite(1)),Finite(2))",
          "Cone(Cone(Cone(Finite(1))))"]


def _flag(A) -> str:
    return ",".join(map(str, A))


def _stalk_check(space, x) -> dict:
    rep = stalkwise_cube_check(space, x)
    cx = _cube_stalk_complex(space, _shared_cube(space), x)
    return {"point": rep["point"], "height": rep["height"],
            "degeneracy_ok": rep["degeneracy_ok"], "exact": rep["exact"],
            "stalk_dims": {_flag(A): d for A, d in rep["stalk_dims"].items()},
            "homology": {str(i): d for i, d in rep["homology"].items()},
            "differentials": {str(i): ser.dumps(ser.linmap_to_json(d))
                              for i, d in sorted(cx.diffs.items())}}


def _cube(expr) -> dict:
    space = parse_space(expr)
    cube = sheaf_cube(space)
    return {"sheaves": {_flag(A): ser.dumps(ser.csheaf_to_json(F))
                        for A, F in cube["sheaves"].items()},
            "edges": {f"{_flag(A)}+{b}": ser.dumps(ser.sheafmap_to_json(f))
                      for (A, b), f in cube["edges"].items()},
            "stalk_checks": [_stalk_check(space, x) for x in iter_points(space, 2)]}


def render() -> str:
    doc = {"cubes": {e: _cube(e) for e in SPACES}, "schema": ser.SCHEMA}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_cube_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
