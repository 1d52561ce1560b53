"""Expander determinism: canonical order, declaration-order
independence, cross-process stability."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.sweeps.expand import (
    axis_order,
    coord_columns,
    expand,
    expand_cells,
    relevant_axes,
    replicate_axis,
    unique_cells,
)
from repro.sweeps.spec import SweepSpecError, normalise_sweep


def two_arm_spec(axes=None):
    return normalise_sweep(
        {
            "schema": "sweep/v1",
            "name": "study",
            "axes": axes
            or {
                "size_bytes": [1024, 4096],
                "workload": ["go", "li"],
                "input": ["test"],
                "top_values": [7, 3],
            },
            "arms": [
                {
                    "name": "base",
                    "kind": "baseline",
                    "cell": {"line_bytes": 32},
                },
                {
                    "name": "fvc",
                    "kind": "fvc",
                    "cell": {"line_bytes": 32, "fvc_entries": 512},
                },
            ],
            "report": {
                "fields": ["miss_rate_percent"],
                "aggregates": ["mean"],
            },
        }
    )


class TestCanonicalOrder:
    def test_axis_order_is_priority_then_alphabetical(self):
        spec = two_arm_spec()
        assert axis_order(spec["axes"]) == [
            "workload",
            "input",
            "size_bytes",
            "top_values",
        ]

    def test_declaration_order_never_changes_expansion(self):
        forward = two_arm_spec()
        shuffled = two_arm_spec(
            axes={
                "top_values": [7, 3],
                "input": ["test"],
                "workload": ["go", "li"],
                "size_bytes": [1024, 4096],
            }
        )
        assert expand(forward) == expand(shuffled)
        assert expand_cells(forward) == expand_cells(shuffled)

    def test_axis_value_order_is_preserved(self):
        points = expand(two_arm_spec())
        fvc_tops = [
            point.coords["top_values"]
            for point in points
            if point.arm == "fvc"
        ]
        # Declared [7, 3]: never sorted into [3, 7].
        assert fvc_tops[:2] == [7, 3]

    def test_outer_axes_shared_arm_local_innermost(self):
        points = expand(two_arm_spec())
        # top_values binds only the fvc arm, so per outer combination
        # the baseline runs once, then the fvc arm iterates tops.
        assert [point.arm for point in points[:3]] == ["base", "fvc", "fvc"]
        assert points[0].coords.get("top_values") is None
        assert points[0].cell.workload == "go"
        assert points[0].cell.size_bytes == 1024

    def test_indices_are_sequential(self):
        points = expand(two_arm_spec())
        assert [point.index for point in points] == list(range(len(points)))

    def test_expansion_is_stable_across_processes(self):
        script = """
import json
from repro.sweeps.expand import expand
from repro.sweeps.spec import normalise_sweep

spec = json.loads({spec!r})
points = expand(normalise_sweep(spec))
print(json.dumps([
    [p.index, p.arm, p.kind, sorted(p.coords.items()),
     [p.cell.workload, p.cell.input_name, p.cell.kind, p.cell.size_bytes,
      p.cell.line_bytes, p.cell.ways, p.cell.fvc_entries,
      p.cell.top_values]]
    for p in points
]))
"""
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_dir, env.get("PYTHONPATH")) if part
        )
        spec = two_arm_spec()
        rendered = script.format(spec=json.dumps(spec))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", rendered],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        local = [
            [
                point.index,
                point.arm,
                point.kind,
                sorted(point.coords.items()),
                [
                    point.cell.workload,
                    point.cell.input_name,
                    point.cell.kind,
                    point.cell.size_bytes,
                    point.cell.line_bytes,
                    point.cell.ways,
                    point.cell.fvc_entries,
                    point.cell.top_values,
                ],
            ]
            for point in expand(spec)
        ]
        assert json.loads(outputs[0]) == json.loads(json.dumps(local))


class TestBindings:
    def test_implicit_axis_binds_matching_field(self):
        points = expand(two_arm_spec())
        for point in points:
            assert point.cell.size_bytes == point.coords["size_bytes"]
            assert point.cell.input_name == "test"

    def test_explicit_cell_entry_overrides_implicit_binding(self):
        spec = normalise_sweep(
            {
                "schema": "sweep/v1",
                "name": "override",
                "axes": {
                    "workload": ["go"],
                    "input": ["test"],
                    "ways": [1, 2, 4],
                },
                "arms": [
                    {"name": "assoc", "kind": "baseline", "cell": {}},
                    {
                        "name": "pinned",
                        "kind": "classify",
                        "cell": {"ways": 1},
                    },
                ],
                "report": {
                    "fields": ["conflict"],
                    "aggregates": ["mean"],
                },
            }
        )
        points = expand(spec)
        pinned = [point for point in points if point.arm == "pinned"]
        # The explicit ways=1 suppresses the axis: one classify point,
        # not three.
        assert len(pinned) == 1
        assert pinned[0].cell.ways == 1
        assert "ways" not in pinned[0].coords
        assert len([point for point in points if point.arm == "assoc"]) == 3

    def test_object_axis_components_resolve(self):
        spec = normalise_sweep(
            {
                "schema": "sweep/v1",
                "name": "coupled",
                "axes": {
                    "workload": ["go"],
                    "input": ["test"],
                    "pair": [
                        {"line_bytes": 8, "small": 4096, "double": 8192},
                        {"line_bytes": 16, "small": 8192, "double": 16384},
                    ],
                },
                "arms": [
                    {
                        "name": "double",
                        "kind": "baseline",
                        "cell": {
                            "size_bytes": "$pair.double",
                            "line_bytes": "$pair.line_bytes",
                        },
                    },
                    {
                        "name": "fvc",
                        "kind": "fvc",
                        "cell": {
                            "size_bytes": "$pair.small",
                            "line_bytes": "$pair.line_bytes",
                            "fvc_entries": 512,
                            "top_values": 7,
                        },
                    },
                ],
                "report": {
                    "fields": ["miss_rate_percent"],
                    "aggregates": ["mean"],
                },
            }
        )
        points = expand(spec)
        assert [
            (point.arm, point.cell.size_bytes, point.cell.line_bytes)
            for point in points
        ] == [
            ("double", 8192, 8),
            ("fvc", 4096, 8),
            ("double", 16384, 16),
            ("fvc", 8192, 16),
        ]

    def test_unused_axis_is_an_error(self):
        with pytest.raises(SweepSpecError, match="bind no arm"):
            expand(
                normalise_sweep(
                    {
                        "schema": "sweep/v1",
                        "name": "dangling",
                        "axes": {
                            "workload": ["go"],
                            "input": ["test"],
                            "phase": [1, 2],
                        },
                        "arms": [
                            {"name": "base", "kind": "baseline", "cell": {}}
                        ],
                        "report": {
                            "fields": ["misses"],
                            "aggregates": ["mean"],
                        },
                    }
                )
            )


class TestHelpers:
    def test_unique_cells_first_occurrence_order(self):
        spec = two_arm_spec()
        points = expand(spec)
        distinct = unique_cells(points)
        assert len(distinct) == len(points)  # this grid has no overlap
        assert distinct == [point.cell for point in points]

    def test_relevant_axes_projection(self):
        spec = two_arm_spec()
        base, fvc = spec["arms"]
        assert relevant_axes(spec, base) == [
            "workload",
            "input",
            "size_bytes",
        ]
        assert relevant_axes(spec, fvc) == [
            "workload",
            "input",
            "size_bytes",
            "top_values",
        ]

    def test_replicate_axis_needs_multiple_inputs(self):
        assert replicate_axis(two_arm_spec()) is None
        multi = two_arm_spec(
            axes={
                "workload": ["go"],
                "input": ["test", "train"],
                "size_bytes": [1024],
                "top_values": [7],
            }
        )
        assert replicate_axis(multi) == "input"

    def test_coord_columns_exclude_replicate_axis(self):
        multi = two_arm_spec(
            axes={
                "workload": ["go"],
                "input": ["test", "train"],
                "size_bytes": [1024],
                "top_values": [7],
            }
        )
        assert coord_columns(multi) == [
            ("workload", None),
            ("size_bytes", None),
            ("top_values", None),
        ]
