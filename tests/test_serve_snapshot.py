"""Snapshot export/load round-trips, manifest versioning, integrity."""

import ast
import ctypes
import errno
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

import repro
from repro.models import MF, LightGCN
from repro.serve import (SHARDED_SCHEMA, ShardedManifest,
                         export_sharded_snapshot, export_snapshot,
                         load_sharded_snapshot, load_snapshot)
from repro.serve import snapshot as snapshot_mod


def _can_exchange(directory: pathlib.Path) -> bool:
    """Probe ``directory``'s filesystem for ``renameat2(RENAME_EXCHANGE)``
    directly, so a broken ``_swap_in`` fails the tests, not skips them."""
    try:
        renameat2 = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        return False
    renameat2.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
                          ctypes.c_char_p, ctypes.c_uint]
    renameat2.restype = ctypes.c_int
    a, b = directory / "probe-a", directory / "probe-b"
    a.write_text("a")
    b.write_text("b")
    at_fdcwd, rename_exchange = -100, 2
    swapped = renameat2(at_fdcwd, os.fsencode(a), at_fdcwd, os.fsencode(b),
                        rename_exchange) == 0
    a.unlink()
    b.unlink()
    return swapped


@pytest.fixture(scope="session")
def can_exchange(tmp_path_factory) -> bool:
    return _can_exchange(tmp_path_factory.mktemp("probe"))


@pytest.fixture()
def no_exchange():
    """Force the ``os.replace`` fallback: ``renameat2`` fails with EINVAL.

    Patched through its own context, so a test's ``monkeypatch.undo()``
    does not switch paths halfway.
    """
    def einval(*args):
        ctypes.set_errno(errno.EINVAL)
        return -1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snapshot_mod, "_renameat2", lambda: einval)
        yield


@pytest.fixture(params=["exchange", "replace"])
def publish_path(request, can_exchange):
    """Run a test over both publish paths."""
    if request.param == "exchange" and not can_exchange:
        pytest.skip("filesystem cannot exchange two names")
    if request.param == "replace":
        request.getfixturevalue("no_exchange")
    return request.param


#: A serving process for :class:`TestLivePublish`: loads the snapshot in
#: ``argv[1]`` (``argv[2]`` shards) until a ``stop`` file appears beside
#: it, and prints the failed loads.
_POLLING_READER = """
import json, pathlib, sys
from repro.serve import load_sharded_snapshot, load_snapshot
out, shards = pathlib.Path(sys.argv[1]), int(sys.argv[2])
load = load_snapshot if shards == 1 else load_sharded_snapshot
failures, reads = [], 0
while not (out.parent / "stop").exists():
    try:
        load(out)
    except Exception as exc:
        failures.append(repr(exc))
    reads += 1
    (out.parent / "ready").touch()
print(json.dumps({"reads": reads, "failures": failures[:5]}))
"""


class _Killed(BaseException):
    """Stands in for SIGKILL: nothing catches it."""


def _kill_at_swap(monkeypatch, dies):
    """Make the publish die at the first ``_swap_in`` with ``dies(dst)``
    true, and run no cleanup on the way out, as a killed process runs
    none; returns the names swapped in before the kill."""
    real_swap = snapshot_mod._swap_in
    done = []

    def dying_swap(src, dst):
        if dies(pathlib.Path(dst)):
            raise _Killed
        real_swap(src, dst)
        done.append(pathlib.Path(dst).name)

    monkeypatch.setattr(snapshot_mod, "_swap_in", dying_swap)
    monkeypatch.setattr(snapshot_mod, "shutil", types.SimpleNamespace(
        rmtree=lambda *args, **kwargs: None))
    return done


class TestExport:
    def test_roundtrip_preserves_tables(self, tiny_dataset, tiny_mf_snapshot):
        model, snapshot = tiny_mf_snapshot
        loaded = load_snapshot(snapshot.path)
        users, items = model.embeddings()
        np.testing.assert_array_equal(np.asarray(loaded.users), users)
        np.testing.assert_array_equal(np.asarray(loaded.items), items)
        assert loaded.version == snapshot.version

    def test_manifest_fields(self, tiny_dataset, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        m = snapshot.manifest
        assert m.schema == SHARDED_SCHEMA
        assert m.model == "mf" and m.model_class == "MF"
        assert (m.num_users, m.num_items) == (tiny_dataset.num_users,
                                              tiny_dataset.num_items)
        assert m.dim == 8
        assert m.dataset == "tiny"
        assert m.scoring == "cosine"  # MF tests with cosine (Table V)
        assert m.created_unix > 0

    def test_seen_sets_match_train_split(self, tiny_dataset,
                                         tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        loaded = load_snapshot(snapshot.path)
        for u in (0, 7, tiny_dataset.num_users - 1):
            np.testing.assert_array_equal(
                loaded.seen(u), tiny_dataset.train_items_by_user[u])

    def test_propagation_baked_in(self, tiny_dataset, tmp_path):
        """GCN snapshots store post-propagation tables, not raw weights."""
        model = LightGCN(tiny_dataset, dim=8, rng=0)
        snapshot = export_snapshot(model, tiny_dataset, tmp_path)
        users, _ = model.embeddings()
        np.testing.assert_array_equal(np.asarray(snapshot.users), users)
        assert not np.array_equal(np.asarray(snapshot.users),
                                  model.user_embedding.weight.data)

    def test_export_in_train_mode_uses_eval_forward(self, tiny_dataset,
                                                    tmp_path):
        """Export must not leak train-mode perturbations into the tables."""
        model = LightGCN(tiny_dataset, dim=8, rng=0)
        model.train()
        snapshot = export_snapshot(model, tiny_dataset, tmp_path)
        assert model.training  # mode restored
        eval_scores = model.scoring_tables().scores(np.arange(4))
        # the snapshot stores the float32 tables cast to float64, exactly
        users = np.asarray(snapshot.users)[:4].astype(np.float32)
        items = np.asarray(snapshot.items).astype(np.float32)
        np.testing.assert_array_equal(users @ items.T, eval_scores)

    def test_size_mismatch_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users - 1, tiny_dataset.num_items,
                   dim=8, rng=0)
        with pytest.raises(ValueError, match="sized"):
            export_snapshot(model, tiny_dataset, tmp_path)


class TestVersioning:
    def test_version_tracks_content(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        first = export_snapshot(model, tiny_dataset, tmp_path / "a")
        again = export_snapshot(model, tiny_dataset, tmp_path / "b")
        assert first.version == again.version  # deterministic content hash
        model.user_embedding.weight.data[0, 0] += 1.0
        changed = export_snapshot(model, tiny_dataset, tmp_path / "c")
        assert changed.version != first.version

    def test_verify_detects_tampering(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        table = np.load(tmp_path / "item-shard-00" / "item_embeddings.npy")
        table[0, 0] += 1.0
        np.save(tmp_path / "item-shard-00" / "item_embeddings.npy", table)
        load_snapshot(tmp_path)  # lazy load is fine
        with pytest.raises(ValueError, match="content hash"):
            load_snapshot(tmp_path, verify=True)


class TestLoad:
    def test_mmap_default_is_readonly(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        loaded = load_snapshot(snapshot.path)
        assert isinstance(loaded.users, np.memmap)
        with pytest.raises(ValueError):
            loaded.users[0, 0] = 1.0

    def test_in_memory_load(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        loaded = load_snapshot(snapshot.path, mmap=False)
        assert not isinstance(loaded.users, np.memmap)
        np.testing.assert_array_equal(loaded.users, snapshot.users)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path)

    def test_truncated_seen_items_rejected_at_load(self, tiny_dataset,
                                                   tmp_path):
        """CSR inconsistency fails at load time, not deep in masking."""
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        seen = np.load(tmp_path / "user-shard-00" / "seen_items.npy")
        np.save(tmp_path / "user-shard-00" / "seen_items.npy", seen[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(tmp_path)

    def test_non_monotone_indptr_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        indptr = np.load(tmp_path / "user-shard-00" / "seen_indptr.npy")
        indptr[1], indptr[2] = indptr[2], indptr[1]
        np.save(tmp_path / "user-shard-00" / "seen_indptr.npy", indptr)
        with pytest.raises(ValueError, match="monotone"):
            load_snapshot(tmp_path)

    def test_out_of_range_seen_items_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        seen = np.load(tmp_path / "user-shard-00" / "seen_items.npy")
        seen[0] = tiny_dataset.num_items
        np.save(tmp_path / "user-shard-00" / "seen_items.npy", seen)
        with pytest.raises(ValueError, match="out-of-range"):
            load_snapshot(tmp_path)

    def test_unknown_manifest_fields_rejected(self, tiny_mf_snapshot,
                                              tmp_path):
        _, snapshot = tiny_mf_snapshot
        payload = json.loads(snapshot.manifest.to_json())
        payload["from_the_future"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            ShardedManifest.from_json(json.dumps(payload))


class TestCrashSafePublish:
    """Exports stage then rename: a killed exporter can't tear state."""

    @pytest.fixture(autouse=True)
    def publish_path(self, can_exchange):
        """The exchange path, where the filesystem supports it."""
        return "exchange" if can_exchange else "replace"

    def test_kill_between_swaps_rejected_then_swept(
            self, publish_path, tiny_dataset, monkeypatch, tmp_path):
        """Killed after one of three swaps: the new item shard sits
        beside the old user shard and manifest, and the staging directory
        survives.  A verify load rejects the mix; the next export sweeps
        the orphan (holding the replaced shard on the exchange path) and
        verify-loads."""
        out = tmp_path / "snap"
        old = export_snapshot(MF(tiny_dataset.num_users,
                                 tiny_dataset.num_items, dim=8, rng=0),
                              tiny_dataset, out, model_name="mf")
        old_items = np.array(old.items)
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=1)
        done = _kill_at_swap(monkeypatch, lambda dst: dst.name
                             == "user-shard-00")
        with pytest.raises(_Killed):
            export_snapshot(model, tiny_dataset, out, model_name="mf")
        monkeypatch.undo()
        assert done == ["item-shard-00"]
        (orphan,) = out.glob(".staging-*")
        if publish_path == "exchange":
            np.testing.assert_array_equal(
                np.load(orphan / "item-shard-00" / "item_embeddings.npy"),
                old_items)
        with pytest.raises(ValueError, match="content hash"):
            load_snapshot(out, verify=True)
        export_snapshot(model, tiny_dataset, out, model_name="mf")
        assert not orphan.exists()
        load_snapshot(out, verify=True)

    def test_crash_mid_export_leaves_no_half_snapshot(
            self, tiny_dataset, monkeypatch, tmp_path):
        """Fresh-dir export killed partway: target stays unloadable-empty.

        The staged files never reach the publish names, so the
        directory afterwards holds no manifest — a loader fails loudly
        instead of reading a half-written snapshot.
        """
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=0)
        real_save = np.save
        calls = {"n": 0}

        def dying_save(path, array, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("simulated crash mid-export")
            return real_save(path, array, **kwargs)

        monkeypatch.setattr(np, "save", dying_save)
        with pytest.raises(OSError, match="simulated crash"):
            export_snapshot(model, tiny_dataset, tmp_path / "snap",
                            model_name="mf")
        monkeypatch.setattr(np, "save", real_save)
        assert not (tmp_path / "snap" / "shards.json").exists()
        assert not list((tmp_path / "snap").glob(".staging-*"))
        with pytest.raises(Exception):
            load_snapshot(tmp_path / "snap")

    def test_crash_during_staging_keeps_old_snapshot_intact(
            self, tiny_dataset, monkeypatch, tmp_path):
        """Re-export over a live snapshot dies in staging: old one serves.

        Staging happens in a hidden sibling directory before any
        rename, so a crash there must leave the published files
        byte-identical and verify-loadable.
        """
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=0)
        out = tmp_path / "snap"
        snapshot = export_snapshot(model, tiny_dataset, out,
                                   model_name="mf")
        good_version = snapshot.version

        def dying_save(path, array, **kwargs):
            raise OSError("simulated crash in staging")

        monkeypatch.setattr(np, "save", dying_save)
        model2 = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                    dim=8, rng=1)
        with pytest.raises(OSError, match="in staging"):
            export_snapshot(model2, tiny_dataset, out, model_name="mf")
        monkeypatch.undo()
        reloaded = load_snapshot(out, verify=True)
        assert reloaded.version == good_version
        assert not list(out.glob(".staging-*"))

    def test_orphaned_staging_dirs_swept_on_next_export(
            self, tiny_dataset, tmp_path):
        """A .staging-* left by a SIGKILL is removed by the next export."""
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=0)
        out = tmp_path / "snap"
        export_snapshot(model, tiny_dataset, out, model_name="mf")
        orphan = out / ".staging-dead"
        orphan.mkdir()
        (orphan / "user_embeddings.npy").write_bytes(b"torn")
        export_snapshot(model, tiny_dataset, out, model_name="mf")
        assert not orphan.exists()
        load_snapshot(out, verify=True)

    def test_shrinking_reexport_sweeps_old_shards_only_after_commit(
            self, tiny_dataset, monkeypatch, tmp_path):
        """A 1×1 re-export over a 4-shard set killed at its commit keeps
        every old shard directory: nothing the live ``shards.json`` names
        is deleted before the new one is in place.  The completed
        re-export then leaves no orphan shard directory."""
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=0)
        out = tmp_path / "snap"
        export_sharded_snapshot(model, tiny_dataset, out, shards=4)
        _kill_at_swap(monkeypatch, lambda dst: dst.name == "shards.json")
        with pytest.raises(_Killed):
            export_snapshot(model, tiny_dataset, out, model_name="mf")
        monkeypatch.undo()
        names = [f"{kind}-shard-{i:02d}" for kind in ("item", "user")
                 for i in range(4)]
        assert sorted(p.name for p in out.glob("*-shard-*")) == names
        old = json.loads((out / "shards.json").read_text())
        assert old["num_user_shards"] == old["num_item_shards"] == 4
        export_snapshot(model, tiny_dataset, out, model_name="mf")
        assert sorted(p.name for p in out.glob("*-shard-*")) == [
            "item-shard-00", "user-shard-00"]
        assert not list(out.glob(".staging-*"))
        load_snapshot(out, verify=True)

    # The ANN index directory is one more artifact behind the same
    # publish helper; its kill-mid-write cases mirror the two above.
    @staticmethod
    def _save_dying_at(monkeypatch, nth):
        real_save = np.save
        calls = {"n": 0}

        def dying_save(path, array, **kwargs):
            calls["n"] += 1
            if calls["n"] >= nth:
                raise OSError("simulated crash mid-build")
            return real_save(path, array, **kwargs)

        monkeypatch.setattr(np, "save", dying_save)

    @pytest.mark.parametrize("kind", ["ivf"])
    def test_killed_ann_rebuild_keeps_previous_index(
            self, kind, tiny_mf_snapshot, monkeypatch, tmp_path):
        """A rebuild killed after its first ``np.save`` must leave the
        previous build answering bit for bit — not new centroids under
        the old manifest."""
        from repro.ann import build_ann_index, load_ann_index
        _, snapshot = tiny_mf_snapshot
        users = np.arange(snapshot.manifest.num_users, dtype=np.int64)
        want = build_ann_index(snapshot, tmp_path, nlist=4,
                               seed=0).topk(users, k=10)
        self._save_dying_at(monkeypatch, 2)
        with pytest.raises(OSError, match="simulated crash"):
            build_ann_index(snapshot, tmp_path, nlist=6, seed=1)
        monkeypatch.undo()
        assert not list(tmp_path.glob(".staging-*"))
        for verify in (False, True):
            got = load_ann_index(tmp_path, snapshot, verify=verify)
            assert got.kind == kind
            got = got.topk(users, k=10)
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_killed_first_ann_build_leaves_no_manifest(
            self, tiny_mf_snapshot, monkeypatch, tmp_path):
        from repro.ann import build_ann_index, is_ann_index
        _, snapshot = tiny_mf_snapshot
        self._save_dying_at(monkeypatch, 2)
        with pytest.raises(OSError, match="simulated crash"):
            build_ann_index(snapshot, tmp_path / "ann", nlist=4, seed=0)
        monkeypatch.undo()
        assert not (tmp_path / "ann" / "manifest.json").exists()
        assert not list((tmp_path / "ann").glob(".staging-*"))
        assert not is_ann_index(tmp_path / "ann")


class TestCrashSafePublishWithoutExchange(TestCrashSafePublish):
    """The same kills on the ``os.replace`` fallback path."""

    @pytest.fixture(autouse=True)
    def publish_path(self, no_exchange):
        return "replace"


@pytest.mark.usefixtures("publish_path")
class TestLivePublish:
    """A re-export under a running reader: every published name always
    exists and holds a complete file, and mapped old files stay intact."""

    def test_reader_never_sees_a_missing_or_short_file(self, tiny_dataset,
                                                       tmp_path):
        models = [MF(tiny_dataset.num_users, tiny_dataset.num_items,
                     dim=8, rng=seed) for seed in (0, 1)]
        out = tmp_path / "snap"
        export_snapshot(models[0], tiny_dataset, out, model_name="mf")
        shape = (tiny_dataset.num_users, 8)
        stop = threading.Event()
        errors, reads = [], []

        def reader():
            while True:
                try:
                    manifest = json.loads((out / "shards.json").read_text())
                    users = np.load(out / "user-shard-00"
                                    / "user_embeddings.npy")
                except (OSError, ValueError) as exc:
                    errors.append(exc)
                    return
                if manifest["num_users"] != shape[0] or users.shape != shape:
                    errors.append(users.shape)
                    return
                reads.append(1)
                if stop.is_set():
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(20):
                export_snapshot(models[(i + 1) % 2], tiny_dataset, out,
                                model_name="mf")
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors
        assert reads

    @pytest.mark.parametrize("shards", [1, 2])
    def test_reader_loads_every_snapshot_during_reexports(
            self, shards, tiny_dataset, tmp_path):
        """A serving process polling the loader while the directory is
        re-exported over and over never fails to load a snapshot."""
        models = [MF(tiny_dataset.num_users, tiny_dataset.num_items,
                     dim=8, rng=seed) for seed in (0, 1)]
        out = tmp_path / "snap"

        def export(model):
            if shards == 1:
                export_snapshot(model, tiny_dataset, out, model_name="mf")
            else:
                export_sharded_snapshot(model, tiny_dataset, out,
                                        shards=shards, model_name="mf")

        export(models[0])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        reader = subprocess.Popen(
            [sys.executable, "-c", _POLLING_READER, str(out), str(shards)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            ready = tmp_path / "ready"
            deadline = time.monotonic() + 60
            while not ready.exists() and reader.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for i in range(30):
                export(models[(i + 1) % 2])
        finally:
            (tmp_path / "stop").touch()
            stdout, _ = reader.communicate(timeout=60)
        result = json.loads(stdout)
        assert result["failures"] == []
        assert result["reads"] > 0


    def test_mmap_of_the_old_file_keeps_its_bytes(self, tiny_dataset,
                                                   tmp_path):
        out = tmp_path / "snap"
        export_snapshot(MF(tiny_dataset.num_users, tiny_dataset.num_items,
                           dim=8, rng=0), tiny_dataset, out, model_name="mf")
        mapped = load_snapshot(out, mmap=True)
        assert isinstance(mapped.users, np.memmap)
        before = np.array(mapped.users)
        new = export_snapshot(MF(tiny_dataset.num_users,
                                 tiny_dataset.num_items, dim=8, rng=1),
                              tiny_dataset, out, model_name="mf")
        assert not np.array_equal(np.asarray(new.users), before)
        np.testing.assert_array_equal(mapped.users, before)

    @pytest.mark.parametrize("artifact", ["ann", "snapshot"])
    def test_orphaned_staging_swept_by_every_publish(
            self, artifact, tiny_dataset, tiny_mf_snapshot, tmp_path):
        from repro.ann import build_ann_index
        model, snapshot = tiny_mf_snapshot
        out = tmp_path / artifact
        orphan = out / ".staging-dead"
        orphan.mkdir(parents=True)
        (orphan / "manifest.json").write_text("torn")
        if artifact == "ann":
            build_ann_index(snapshot, out, nlist=4, seed=0)
        else:
            export_snapshot(model, tiny_dataset, out, model_name="mf")
        assert not orphan.exists()

    def test_killed_shards_manifest_write_is_swept(self, tiny_dataset,
                                                    monkeypatch, tmp_path):
        """``shards.json`` is staged like every other file: a kill at its
        swap leaves a ``.staging-*`` directory, never a loose temp file,
        and the next sharded export sweeps it."""
        from repro.serve import export_sharded_snapshot, load_sharded_snapshot
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items,
                   dim=8, rng=0)
        out = tmp_path / "sharded"
        _kill_at_swap(monkeypatch, lambda dst: dst.name == "shards.json")
        with pytest.raises(_Killed):
            export_sharded_snapshot(model, tiny_dataset, out, shards=2)
        monkeypatch.undo()
        assert not (out / "shards.json").is_file()
        assert not list(out.glob(".shards.json*"))
        (orphan,) = out.glob(".staging-*")
        export_sharded_snapshot(model, tiny_dataset, out, shards=2)
        assert not orphan.exists()
        load_sharded_snapshot(out, verify=True)


def test_reexport_never_renames_over_a_live_file(tiny_dataset,
                                                  tiny_mf_snapshot,
                                                  tiny_mf_snapshot_next,
                                                  can_exchange, monkeypatch,
                                                  tmp_path):
    """Re-publishing a snapshot and an ANN index exchanges every file:
    no ``os.replace`` lands on an existing path, which on ext4 would
    force writeback of the new file before returning."""
    if not can_exchange:
        pytest.skip("filesystem cannot exchange two names")
    from repro.ann import build_ann_index
    model, snapshot = tiny_mf_snapshot
    model_next, _ = tiny_mf_snapshot_next
    real_replace = os.replace
    over_live = []

    def recording_replace(src, dst, **kwargs):
        if os.path.lexists(dst):
            over_live.append(dst)
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", recording_replace)
    for generation, seed in ((model, 0), (model_next, 1)):
        export_snapshot(generation, tiny_dataset, tmp_path / "snap",
                        model_name="mf", created_unix=0.0)
        build_ann_index(snapshot, tmp_path / "ann", nlist=4, seed=seed)
    assert over_live == []
    load_snapshot(tmp_path / "snap", verify=True)


def test_only_swap_in_calls_os_replace():
    """Every publish goes through ``serve.snapshot._swap_in``."""
    root = pathlib.Path(repro.__file__).parent
    callers = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr == "replace"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"):
                    callers.append((path.relative_to(root).as_posix(),
                                    func.name))
    assert callers == [("serve/snapshot.py", "_swap_in")]
