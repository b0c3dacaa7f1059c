"""The durable job queue: journal, snapshot, compaction, idempotency."""

import json

import pytest

from repro.service.queue import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    JobQueue,
    JobQueueError,
    JobSpec,
)


def spec(tenant="t", key="k", variants=("winnt",), cap=30, muts=None):
    return JobSpec(
        tenant=tenant,
        job_key=key,
        variants=tuple(variants),
        cap=cap,
        muts=muts,
    )


class TestSubmit:
    def test_assigns_sequential_ids(self, tmp_path):
        q = JobQueue(tmp_path)
        a, created_a = q.submit(spec(key="a"))
        b, created_b = q.submit(spec(key="b"))
        assert (a.job_id, b.job_id) == ("job-0001", "job-0002")
        assert created_a and created_b

    def test_idempotent_on_tenant_and_key(self, tmp_path):
        q = JobQueue(tmp_path)
        first, _ = q.submit(spec())
        again, created = q.submit(spec())
        assert not created
        assert again.job_id == first.job_id
        assert len(q.jobs()) == 1

    def test_same_key_different_tenant_is_a_new_job(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec(tenant="alice"))
        _, created = q.submit(spec(tenant="bob"))
        assert created

    def test_idempotency_survives_reopen(self, tmp_path):
        # Regression: the (tenant, job_key) index must be rebuilt from
        # the snapshot, not only from journal replay -- a restarted
        # service would otherwise duplicate every resubmitted campaign.
        q = JobQueue(tmp_path)
        first, _ = q.submit(spec())
        q.close()  # compacts: the journal is empty, only the snapshot remains
        q2 = JobQueue(tmp_path)
        again, created = q2.submit(spec())
        assert not created
        assert again.job_id == first.job_id


class TestDurability:
    def test_journal_replay_without_snapshot(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec(variants=("winnt", "win98")))
        q.mark_running(record.job_id)
        q.mark_shard_done(record.job_id, "winnt")
        # No close(): simulate a crash -- the journal alone must carry
        # the state.
        q2 = JobQueue(tmp_path)
        loaded = q2.get(record.job_id)
        assert loaded.shards_done == {"winnt"}
        # Leases are process-local: a crashed service's running jobs
        # come back pending.
        assert loaded.state == JOB_PENDING
        assert [
            (r.job_id, token)
            for r in q2.jobs()
            for token in r.spec.all_tokens()
            if token not in r.shards_done
        ] == [(record.job_id, "win98")]

    def test_terminal_states_survive_reopen(self, tmp_path):
        q = JobQueue(tmp_path)
        done, _ = q.submit(spec(key="done"))
        failed, _ = q.submit(spec(key="failed"))
        q.mark_shard_done(done.job_id, "winnt")
        q.mark_job_done(done.job_id)
        q.mark_job_failed(failed.job_id, "shard kept dying")
        q.close()
        q2 = JobQueue(tmp_path)
        assert q2.get(done.job_id).state == JOB_DONE
        assert q2.get(failed.job_id).state == JOB_FAILED
        assert q2.get(failed.job_id).error == "shard kept dying"
        assert [r.state for r in q2.jobs()] == [JOB_DONE, JOB_FAILED]

    def test_torn_journal_tail_is_dropped_with_a_warning(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec())
        q.mark_shard_done(record.job_id, "winnt")
        with open(tmp_path / "queue.journal", "a", encoding="utf-8") as fh:
            fh.write('{"op": "job_done", "job')  # killed mid-append
        with pytest.warns(UserWarning, match="torn line"):
            q2 = JobQueue(tmp_path)
        loaded = q2.get(record.job_id)
        assert loaded.shards_done == {"winnt"}
        assert loaded.state != JOB_DONE  # the torn op never took effect

    def test_unknown_journal_op_warns_and_continues(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec())
        with open(tmp_path / "queue.journal", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"op": "frobnicate"}) + "\n")
        q.mark_shard_done(record.job_id, "winnt")
        with pytest.warns(UserWarning, match="unknown op"):
            q2 = JobQueue(tmp_path)
        assert q2.get(record.job_id).shards_done == {"winnt"}

    def test_compaction_truncates_the_journal(self, tmp_path):
        q = JobQueue(tmp_path, compact_every=3)
        for index in range(4):
            q.submit(spec(key=f"k{index}"))
        # The 3rd append compacted: snapshot written, journal truncated,
        # and the 4th op started a fresh journal.
        assert (tmp_path / "queue.json").exists()
        journal_lines = [
            line
            for line in (tmp_path / "queue.journal")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        assert len(journal_lines) == 1
        q2 = JobQueue(tmp_path)
        assert len(q2.jobs()) == 4
        assert q2.submit(spec(key="k5"))[0].job_id == "job-0005"

    def test_rejects_a_foreign_snapshot(self, tmp_path):
        (tmp_path / "queue.json").write_text(
            json.dumps({"format": "something-else"}), encoding="utf-8"
        )
        with pytest.raises(JobQueueError, match="not a job-queue"):
            JobQueue(tmp_path)

    def test_rejects_an_unsupported_version(self, tmp_path):
        (tmp_path / "queue.json").write_text(
            json.dumps({"format": "ballista-job-queue", "version": 99}),
            encoding="utf-8",
        )
        with pytest.raises(JobQueueError, match="version"):
            JobQueue(tmp_path)


class TestShardBookkeeping:
    def test_pending_shards_in_submission_then_spec_order(self, tmp_path):
        q = JobQueue(tmp_path)
        a, _ = q.submit(spec(key="a", variants=("winnt", "win98")))
        b, _ = q.submit(spec(key="b", variants=("linux",)))
        assert [
            (r.job_id, token)
            for r in q.jobs()
            for token in r.spec.all_tokens()
        ] == [
            (a.job_id, "winnt"),
            (a.job_id, "win98"),
            (b.job_id, "linux"),
        ]

    def test_mark_shard_done_reports_job_completion(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec(variants=("winnt", "win98")))
        assert not q.mark_shard_done(record.job_id, "winnt")
        assert q.mark_shard_done(record.job_id, "win98")

    def test_mark_shard_done_is_idempotent(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec(variants=("winnt", "win98")))
        q.mark_shard_done(record.job_id, "winnt")
        q.mark_shard_done(record.job_id, "winnt")
        q.close()
        q2 = JobQueue(tmp_path)
        assert q2.get(record.job_id).shards_done == {"winnt"}

    def test_mark_running_leaves_terminal_states_alone(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec())
        q.mark_shard_done(record.job_id, "winnt")
        q.mark_job_done(record.job_id)
        q.mark_running(record.job_id)
        assert q.get(record.job_id).state == JOB_DONE

    def test_shard_and_result_paths_live_under_the_job_dir(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec())
        shard = q.shard_file(record.job_id, "winnt")
        assert shard.parent == tmp_path / "jobs" / record.job_id
        assert shard.name.endswith(".winnt.shard")
        assert q.results_file(record.job_id).parent == shard.parent


class TestSpecValidation:
    def test_round_trip(self):
        original = spec(variants=("winnt", "win98"), muts=("strcpy",))
        assert JobSpec.from_dict(original.as_dict()) == original

    def test_malformed_spec_raises_job_queue_error(self):
        with pytest.raises(JobQueueError, match="malformed job spec"):
            JobSpec.from_dict({"tenant": "t"})

    def test_running_state_constant_round_trips(self, tmp_path):
        q = JobQueue(tmp_path)
        record, _ = q.submit(spec())
        q.mark_running(record.job_id)
        assert record.state == JOB_RUNNING
