"""What a grid's journal holds and how a resumed grid reports its cells.

Sweeps and the attack matrix checkpoint through one
:class:`~repro.runtime.journal.CellLog`.  These tests pin what that log
must keep of both grids: the journal's bytes (a header line with the
grid's metadata, then one checksummed ``{"type": "cell", ...}`` record
per finished cell, in grid order), the ``on_cell`` source of every cell
of a fresh, a partly and a fully resumed run, the counters, histograms
and spans, and the deadline checked at the boundary of every cell a run
does not replay.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import attack_matrix, sweeps
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, RuntimeGuard, use_guard
from repro.runtime.journal import JOURNAL_FORMAT
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.spans import Tracer, use_tracer

SWEEP_META = [
    "adopter_sets", "collect_projection_accuracy", "max_rounds", "num_ases",
    "policy", "stub_breaks_ties", "thetas", "utility_model",
]
MATRIX_META = [
    "env_policy", "levels", "num_ases", "policies", "samples", "scenarios",
    "seed", "strategies",
]


def _sweep(env, **kw):
    sets = env.adopter_sets()
    return sweeps.run_sweep(
        env, thetas=(0.0, 0.3), adopter_sets={k: sets[k] for k in ("top-5", "5-cps")},
        **kw,
    )


def _matrix(env, **kw):
    return attack_matrix.run_attack_matrix(
        env, scenarios=["origin_hijack", "route_leak"],
        policies=["security_3rd", "sp_first"], strategies=["top_isp_first", "random"],
        levels=(0.0, 1.0), samples=3, **kw,
    )


#: ``(grid, runner, its module, the header's meta keys, the telemetry
#: prefix, the cell span's argument names)``
GRIDS = [
    ("sweep", _sweep, sweeps, SWEEP_META, "sweep", ["adopters", "theta"]),
    ("matrix", _matrix, attack_matrix, MATRIX_META, "security.attack",
     ["level", "policy", "scenario", "strategy"]),
]
SPANS = {"sweep": ("sweep", "cell"), "security.attack": ("attack.matrix", "attack.cell")}


@pytest.fixture(params=GRIDS, ids=[g[0] for g in GRIDS])
def grid(request):
    return request.param


def _observed(run, env, **kw):
    """``run``'s cells, the ``on_cell`` sources, and its telemetry."""
    sources = []
    with use_registry(MetricsRegistry()) as registry, use_tracer(Tracer()) as tracer:
        cells = run(env, on_cell=lambda cell, source: sources.append(source), **kw)
    return cells, sources, registry.snapshot(), tracer.events()


def _keep(path, records: int) -> None:
    """Cut the journal at ``path`` to its header and first ``records``."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: records + 1]))


def test_journal_layout(grid, medium_env, tmp_path):
    _, run, module, meta_keys, _, _ = grid
    path = tmp_path / "grid.jsonl"
    cells = run(medium_env, journal=path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert lines[0] == json.dumps(header, sort_keys=True)
    assert header["format"] == JOURNAL_FORMAT
    assert sorted(header) == ["format", "kind", "meta"]
    assert sorted(header["meta"]) == meta_keys
    assert header["meta"]["num_ases"] == medium_env.graph.n
    expected = [{"type": "cell", "cell": module.cell_to_dict(c)} for c in cells]
    assert len(lines) == 1 + len(cells)
    for line, record in zip(lines[1:], expected):
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert line == json.dumps({"record": record, "sha256": checksum}, sort_keys=True)


def test_resumed_runs_report_and_journal_the_fresh_run(grid, medium_env, tmp_path):
    _, run, _, _, prefix, span_args = grid
    path = tmp_path / "grid.jsonl"
    cells, sources, snap, events = _observed(run, medium_env, journal=path)
    total = len(cells)
    assert sources == ["computed"] * total
    assert snap["counters"][f"{prefix}.cells"] == total
    assert snap["histograms"][f"{prefix}.cell_seconds"]["count"] == total
    outer, inner = SPANS[prefix]
    assert [e.name for e in events if e.name == outer] == [outer]
    cell_spans = [e for e in events if e.name == inner]
    assert len(cell_spans) == total
    assert sorted(cell_spans[0].args) == span_args
    fresh = path.read_bytes()

    kept = total // 2
    _keep(path, kept)
    resumed, sources, snap, events = _observed(run, medium_env, journal=path)
    assert resumed == cells
    assert sources == ["replayed"] * kept + ["computed"] * (total - kept)
    assert snap["counters"][f"{prefix}.cells_replayed"] == kept
    assert snap["counters"][f"{prefix}.cells"] == total - kept
    assert len([e for e in events if e.name == inner]) == total - kept
    assert path.read_bytes() == fresh

    replayed, sources, snap, _ = _observed(run, medium_env, journal=path)
    assert replayed == cells
    assert sources == ["replayed"] * total
    assert f"{prefix}.cells" not in snap["counters"]
    assert snap["histograms"][f"{prefix}.cell_seconds"]["count"] == 0
    assert path.read_bytes() == fresh


def test_a_sweep_takes_shared_cells_and_journals_them(medium_env, tmp_path):
    """Cells in the shared store are reported as ``cache`` and journaled
    like computed ones; computed cells are published to the store."""

    class Store(dict):
        def get(self, adopters, theta):
            return dict.get(self, (adopters, theta))

        def put(self, adopters, theta, cell):
            puts.append((adopters, theta))
            self[(adopters, theta)] = cell

    puts = []

    cells = _sweep(medium_env)
    store = Store({(c.adopters, c.theta): c for c in cells[::2]})
    path = tmp_path / "grid.jsonl"
    shared, sources, snap, _ = _observed(_sweep, medium_env, journal=path, cell_cache=store)
    assert shared == cells
    assert sources == ["cache", "computed"] * 2
    assert snap["counters"]["sweep.cells_from_cache"] == 2
    assert snap["counters"]["sweep.cells"] == 2
    assert store == {(c.adopters, c.theta): c for c in cells}
    assert puts == [(c.adopters, c.theta) for c in cells[1::2]]
    plain = tmp_path / "plain.jsonl"
    _sweep(medium_env, journal=plain)
    assert path.read_bytes() == plain.read_bytes()


def test_the_deadline_is_checked_at_every_cell_boundary(grid, medium_env, tmp_path):
    """An expired deadline stops the grid before the next cell it would
    compute, with every finished cell journaled; replayed cells are no
    boundary, so a complete journal replays under an expired deadline."""
    name, run, _, _, _, _ = grid
    path = tmp_path / "grid.jsonl"
    cells = run(medium_env)
    now = [0.0]
    guard = RuntimeGuard(deadline=Deadline(1.0, clock=lambda: now[0]))
    done = []

    def on_cell(cell, source):
        if len(done) == 1:  # expire once the second cell is journaled
            now[0] = 2.0
        done.append(cell)

    with use_guard(guard), pytest.raises(DeadlineExceeded) as info:
        run(medium_env, journal=path, on_cell=on_cell)
    assert info.value.where.startswith(
        "attack-matrix cell" if name == "matrix" else "sweep cell"
    )
    assert len(path.read_text().splitlines()) == 1 + 2
    assert run(medium_env, journal=path) == cells
    with use_guard(guard):
        assert run(medium_env, journal=path) == cells
