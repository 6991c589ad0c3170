"""Tests for the chunked process-pool scheduler and the warm pool."""

import operator
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.perf.parallel import (
    DEFAULT_MAX_CHUNK,
    ParallelConfig,
    PoolTaskError,
    WarmProcessPool,
    chunk_seeds,
    parallel_chunk_map,
    parallel_map,
    parallel_reduce,
    split_chunks,
    submit_chunksize,
)


def square(value):
    """Module-level so the process-pool path can pickle it."""
    return value * value


def chunk_sum_with_seed(chunk, seed):
    """Module-level chunk function recording the seed it was handed."""
    return (sum(chunk), seed)


_WARMED = None


def _warm(value):
    """Module-level pool initializer recording its argument per worker."""
    global _WARMED
    _WARMED = value


def read_warmed(task):
    """Returns what the initializer installed in this worker, plus the task."""
    return (_WARMED, task)


def slow_square(value):
    time.sleep(0.01)
    return value * value


def fail_on_seven(value):
    if value == 7:
        raise ValueError("seven is right out")
    return value


def die_on_three(value):
    """SIGKILLs its own worker process on task 3 (an OOM kill, say)."""
    if value == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


class TestConfig:
    def test_one_worker_is_always_serial(self):
        config = ParallelConfig(workers=1)
        assert config.use_serial(1_000_000)

    def test_small_inputs_fall_back_to_serial(self):
        config = ParallelConfig(workers=8, serial_threshold=64)
        assert config.use_serial(63)
        assert not config.use_serial(64)

    def test_none_workers_means_all_cores(self):
        assert ParallelConfig(workers=None).resolved_workers() >= 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0).resolved_workers()

    def test_auto_chunk_size_is_bounded_and_machine_independent(self):
        config = ParallelConfig(workers=None)
        assert config.resolved_chunk_size(10_000) == DEFAULT_MAX_CHUNK
        assert config.resolved_chunk_size(10) == 10

    def test_explicit_chunk_size_wins(self):
        assert ParallelConfig(chunk_size=7).resolved_chunk_size(10_000) == 7
        with pytest.raises(ValueError):
            ParallelConfig(chunk_size=0).resolved_chunk_size(10)


class TestChunking:
    def test_split_chunks_covers_everything_in_order(self):
        chunks = split_chunks(list(range(10)), 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_chunk_seeds_are_deterministic_and_distinct(self):
        seeds = chunk_seeds(42, 8)
        assert seeds == chunk_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert chunk_seeds(43, 8) != seeds

    def test_seeds_do_not_depend_on_worker_count(self):
        """Chunk boundaries come from chunk_size, seeds from the index, so a
        re-run with more workers sees identical (chunk, seed) pairs."""
        items = list(range(40))
        serial = parallel_chunk_map(
            chunk_sum_with_seed, items, ParallelConfig(workers=1, chunk_size=8, base_seed=3)
        )
        pooled = parallel_chunk_map(
            chunk_sum_with_seed,
            items,
            ParallelConfig(workers=2, chunk_size=8, serial_threshold=1, base_seed=3),
        )
        assert serial == pooled

    def test_default_base_seed_is_unpredictable(self):
        """Without an explicit base_seed every job draws fresh chunk seeds
        (the secure default: batching exponents must not be predictable)."""
        items = list(range(16))
        config = ParallelConfig(workers=1, chunk_size=4)
        first = parallel_chunk_map(chunk_sum_with_seed, items, config)
        second = parallel_chunk_map(chunk_sum_with_seed, items, config)
        assert [s for s, _ in first] == [s for s, _ in second]  # same chunk sums
        assert [seed for _, seed in first] != [seed for _, seed in second]


class TestMapAndReduce:
    def test_serial_map_preserves_order(self):
        assert parallel_map(square, range(20)) == [v * v for v in range(20)]

    def test_empty_input(self):
        assert parallel_map(square, []) == []
        assert parallel_chunk_map(chunk_sum_with_seed, []) == []

    def test_process_pool_map_matches_serial(self):
        items = list(range(100))
        expected = parallel_map(square, items, ParallelConfig(workers=1))
        pooled = parallel_map(
            square, items, ParallelConfig(workers=2, serial_threshold=1, chunk_size=25)
        )
        assert pooled == expected

    def test_reduce_matches_serial_fold(self):
        items = list(range(1, 50))
        assert parallel_reduce(operator.add, items) == sum(items)
        assert parallel_reduce(
            operator.add, items, ParallelConfig(workers=2, serial_threshold=1, chunk_size=7)
        ) == sum(items)

    def test_reduce_single_item(self):
        assert parallel_reduce(operator.add, [99]) == 99

    def test_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            parallel_reduce(operator.add, [])


class TestSubmitChunksize:
    def test_four_batches_per_worker(self):
        assert submit_chunksize(80, 2) == 10
        assert submit_chunksize(400, 4) == 25

    def test_never_below_one(self):
        assert submit_chunksize(3, 8) == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            submit_chunksize(0, 2)
        with pytest.raises(ValueError):
            submit_chunksize(10, 0)


class TestWarmProcessPool:
    def test_lazy_start_and_shutdown(self):
        pool = WarmProcessPool(workers=1)
        assert not pool.started
        assert pool.submit(square, 6).result() == 36
        assert pool.started
        pool.shutdown()
        assert not pool.started
        # usable again after shutdown: the next call re-warms fresh workers
        assert pool.submit(square, 7).result() == 49
        pool.shutdown()

    def test_initializer_runs_once_per_worker_not_per_task(self):
        """The warm state is installed by the initializer and visible to
        every task that lands on the worker afterwards."""
        with WarmProcessPool(workers=1, initializer=_warm, initargs=("hot",)) as pool:
            results = dict(pool.imap_unordered(read_warmed, range(5)))
        assert results == {task: ("hot", task) for task in range(5)}

    def test_initargs_exposed_as_fingerprint(self):
        pool = WarmProcessPool(workers=1, initializer=_warm, initargs=["a", 2])
        assert pool.initargs == ("a", 2)

    def test_imap_unordered_returns_every_pair(self):
        with WarmProcessPool(workers=2) as pool:
            pairs = dict(pool.imap_unordered(square, range(20)))
        assert pairs == {task: task * task for task in range(20)}

    def test_imap_unordered_empty(self):
        with WarmProcessPool(workers=1) as pool:
            assert list(pool.imap_unordered(square, [])) == []
            assert pool.peak_inflight == 0

    def test_max_inflight_bounds_pending_tasks(self):
        with WarmProcessPool(workers=2) as pool:
            list(pool.imap_unordered(slow_square, range(12), max_inflight=2))
            assert pool.peak_inflight == 2
            list(pool.imap_unordered(slow_square, range(12), max_inflight=1))
            assert pool.peak_inflight == 1

    def test_default_inflight_is_twice_the_workers(self):
        with WarmProcessPool(workers=2) as pool:
            list(pool.imap_unordered(slow_square, range(12)))
            assert pool.peak_inflight <= 4

    def test_worker_exception_names_the_task(self):
        with WarmProcessPool(workers=2) as pool:
            with pytest.raises(PoolTaskError) as excinfo:
                list(pool.imap_unordered(fail_on_seven, range(10), max_inflight=2))
            assert excinfo.value.task == 7
            assert isinstance(excinfo.value.__cause__, ValueError)
            # the pool survives the failure
            assert dict(pool.imap_unordered(square, [3])) == {3: 9}

    def test_killed_worker_is_named_and_the_pool_respawns(self):
        with WarmProcessPool(workers=2, initializer=_warm, initargs=("hot",)) as pool:
            with pytest.raises(PoolTaskError) as excinfo:
                list(pool.imap_unordered(die_on_three, range(8), max_inflight=4))
            assert excinfo.value.task in range(8)
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert not pool.started
            # the next use spawns fresh workers, warmed by the initializer
            assert dict(pool.imap_unordered(read_warmed, [1, 2])) == {
                1: ("hot", 1), 2: ("hot", 2),
            }
            assert pool.submit(square, 5).result() == 25

    def test_worker_killed_while_idle_fails_one_run_only(self):
        with WarmProcessPool(workers=1) as pool:
            assert pool.submit(square, 2).result() == 4
            (pid,) = pool._executor._processes
            os.kill(pid, signal.SIGKILL)
            # the only worker is dead: the task fails, at submit or result time
            with pytest.raises(PoolTaskError) as excinfo:
                list(pool.imap_unordered(square, [6]))
            assert excinfo.value.task == 6
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert dict(pool.imap_unordered(square, [6])) == {6: 36}

    def test_resolves_default_worker_count(self):
        pool = WarmProcessPool()
        assert pool.workers == max(os.cpu_count() or 1, 1)
