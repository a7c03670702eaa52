"""Snapshot export/load round-trips, manifest versioning, integrity."""

import json

import numpy as np
import pytest

from repro.models import MF, LightGCN
from repro.serve import (SNAPSHOT_SCHEMA, DeltaManifest, LiveState,
                         SnapshotManifest, export_delta, export_snapshot,
                         load_delta, load_snapshot)


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
        assert m.schema == SNAPSHOT_SCHEMA
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
        eval_scores = model.predict_scores(user_ids=np.arange(4))
        users = np.asarray(snapshot.users)[:4]
        items = np.asarray(snapshot.items)
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
        table = np.load(tmp_path / "item_embeddings.npy")
        table[0, 0] += 1.0
        np.save(tmp_path / "item_embeddings.npy", table)
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
        seen = np.load(tmp_path / "seen_items.npy")
        np.save(tmp_path / "seen_items.npy", seen[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(tmp_path)

    def test_non_monotone_indptr_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        indptr = np.load(tmp_path / "seen_indptr.npy")
        indptr[1], indptr[2] = indptr[2], indptr[1]
        np.save(tmp_path / "seen_indptr.npy", indptr)
        with pytest.raises(ValueError, match="monotone"):
            load_snapshot(tmp_path)

    def test_out_of_range_seen_items_rejected(self, tiny_dataset, tmp_path):
        model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8,
                   rng=0)
        export_snapshot(model, tiny_dataset, tmp_path)
        seen = np.load(tmp_path / "seen_items.npy")
        seen[0] = tiny_dataset.num_items
        np.save(tmp_path / "seen_items.npy", seen)
        with pytest.raises(ValueError, match="out-of-range"):
            load_snapshot(tmp_path)

    def test_unknown_manifest_fields_rejected(self, tiny_mf_snapshot,
                                              tmp_path):
        _, snapshot = tiny_mf_snapshot
        payload = json.loads(snapshot.manifest.to_json())
        payload["from_the_future"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            SnapshotManifest.from_json(json.dumps(payload))


class TestDeltaIntegrity:
    """Delta files carry the same tamper-evidence as snapshots."""

    @pytest.fixture()
    def delta_dir(self, tiny_mf_snapshot, tmp_path):
        _, snapshot = tiny_mf_snapshot
        base = LiveState.from_snapshot(snapshot)
        churned = base.copy()
        churned.upsert_item(0, np.full(base.dim, 0.25))
        churned.upsert_user(1, np.full(base.dim, -0.5), [0, 2])
        churned.delete_item(sorted(churned.items)[-1])
        export_delta(base, churned, tmp_path / "delta")
        return tmp_path / "delta"

    def test_roundtrip_verifies(self, delta_dir):
        delta = load_delta(delta_dir, verify=True)
        assert delta.manifest.item_upserts == 1
        assert delta.manifest.user_upserts == 1
        assert delta.manifest.item_deletes == 1

    def test_tampered_rows_rejected(self, delta_dir):
        rows = np.load(delta_dir / "item_upsert_rows.npy")
        rows[0, 0] += 1.0
        np.save(delta_dir / "item_upsert_rows.npy", rows)
        load_delta(delta_dir, verify=False)  # lazy load is fine
        with pytest.raises(ValueError, match="content hash"):
            load_delta(delta_dir, verify=True)

    def test_rebased_manifest_rejected(self, delta_dir):
        """Pointing a delta at a different base breaks its content hash.

        The version digest binds ``base_version -> new_version``, so an
        edited manifest can't graft a delta onto a foreign snapshot."""
        payload = json.loads((delta_dir / "manifest.json").read_text())
        payload["base_version"] = "0" * 16
        (delta_dir / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="content hash"):
            load_delta(delta_dir, verify=True)

    def test_unknown_manifest_fields_rejected(self, delta_dir):
        payload = json.loads((delta_dir / "manifest.json").read_text())
        payload["from_the_future"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            DeltaManifest.from_json(json.dumps(payload))

    def test_missing_op_array_rejected(self, delta_dir):
        (delta_dir / "user_delete_ids.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_delta(delta_dir, verify=True)


class TestCrashSafePublish:
    """Exports stage then rename: a killed exporter can't tear state."""

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
        assert not (tmp_path / "snap" / "manifest.json").exists()
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
