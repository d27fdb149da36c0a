"""True-positive and false-positive tests for the interprocedural rule
families (REP4xx parallel safety, REP5xx cache soundness).

Every rule must fire on its seeded bug pattern and stay quiet on the
closest legitimate variant — the patterns the real engine uses
(copy-before-write shards, indexed as_completed merges, the atomic
``_store`` helper, scoring functions that store every ``__init__``
parameter).  The final tests run the whole ``lint_paths`` front end over
a temp tree to pin the end-to-end wiring: program findings merge into
per-file output, ``--jobs`` stays byte-identical, and ``noqa`` works.
"""

from __future__ import annotations

import textwrap

from repro.devtools.callgraph import build_program
from repro.devtools.lint import INTERPROC_RULES, LintConfig, lint_paths


def program_rule_ids(sources: dict[str, str]) -> list[str]:
    items = [
        (modname, f"src/{modname.replace('.', '/')}.py",
         textwrap.dedent(src))
        for modname, src in sorted(sources.items())
    ]
    program = build_program(items)
    found: list[str] = []
    for rule_cls in INTERPROC_RULES:
        for violation in rule_cls().check_program(program):
            found.append(violation.rule_id)
    return found


# -- REP401: worker mutates frozen state --------------------------------------

_REP401_BAD = {
    "m": """
        from concurrent.futures import ProcessPoolExecutor
        __all__ = ["run"]

        def _worker_context() -> "AnalysisContext":
            raise RuntimeError("set by initializer")

        def _shard(start):
            context = _worker_context()
            context.csr.indices[0] = 7
            return start

        def run(jobs):
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_shard, s) for s in range(4)]
            return [f.result() for f in futures]
    """
}


def test_rep401_fires_on_seeded_frozen_mutation_in_worker():
    assert "REP401" in program_rule_ids(_REP401_BAD)


def test_rep401_fires_when_mutation_is_below_the_worker_entry():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def _worker_context() -> "AnalysisContext":
                raise RuntimeError("set by initializer")

            def _deep(context):
                context.csr.indices[0] = 7

            def _shard(start):
                _deep(_worker_context())
                return start

            def run(jobs):
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_shard, s) for s in range(4)]
                return [f.result() for f in futures]
        """
    }
    assert "REP401" in program_rule_ids(sources)


def test_rep401_quiet_on_copy_before_write():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def _worker_context() -> "AnalysisContext":
                raise RuntimeError("set by initializer")

            def _shard(start):
                context = _worker_context()
                order = context.csr.indices.copy()
                order[0] = 7
                return start

            def run(jobs):
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_shard, s) for s in range(4)]
                return [f.result() for f in futures]
        """
    }
    assert "REP401" not in program_rule_ids(sources)


def test_rep401_quiet_when_mutation_is_not_worker_reachable():
    sources = {
        "m": """
            __all__ = ["rebuild"]

            def rebuild(context: "AnalysisContext"):
                context.csr.indices[0] = 7
        """
    }
    # Frozen mutation with no process dispatch anywhere: REP401 is about
    # *worker* mutation races, so it must not fire (REP2xx owns the rest).
    assert "REP401" not in program_rule_ids(sources)


# -- REP402: RNG transitively crosses a process boundary ----------------------


def test_rep402_fires_on_rng_returned_by_helper():
    sources = {
        "m": """
            import random
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def _make(seed):
                return random.Random(seed)

            def _work(state):
                return state

            def run(jobs, seed):
                state = _make(seed)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    future = pool.submit(_work, state)
                return future.result()
        """
    }
    assert "REP402" in program_rule_ids(sources)


def test_rep402_quiet_on_integer_child_seeds():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def _spawn(seed, n):
                return [seed + k for k in range(n)]

            def _work(child_seed):
                return child_seed

            def run(jobs, seed):
                seeds = _spawn(seed, 4)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_work, s) for s in seeds]
                return [f.result() for f in futures]
        """
    }
    assert "REP402" not in program_rule_ids(sources)


# -- REP403: unpicklable worker callable --------------------------------------


def test_rep403_fires_on_lambda_dispatch():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def run(jobs):
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    future = pool.submit(lambda x: x + 1, 3)
                return future.result()
        """
    }
    assert "REP403" in program_rule_ids(sources)


def test_rep403_fires_on_name_bound_to_lambda():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def run(jobs):
                task = lambda x: x + 1
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    future = pool.submit(task, 3)
                return future.result()
        """
    }
    assert "REP403" in program_rule_ids(sources)


def test_rep403_quiet_on_module_level_worker():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor
            __all__ = ["run"]

            def _work(x):
                return x + 1

            def run(jobs):
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    future = pool.submit(_work, 3)
                return future.result()
        """
    }
    assert "REP403" not in program_rule_ids(sources)


# -- REP404: completion-order merge -------------------------------------------


def test_rep404_fires_on_append_under_as_completed():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor, as_completed
            __all__ = ["run"]

            def _work(x):
                return x

            def run(jobs, xs):
                results = []
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_work, x) for x in xs]
                    for future in as_completed(futures):
                        results.append(future.result())
                return results
        """
    }
    assert "REP404" in program_rule_ids(sources)


def test_rep404_quiet_on_indexed_store_under_as_completed():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor, as_completed
            __all__ = ["run"]

            def _work(x):
                return x

            def run(jobs, xs):
                results = [None] * len(xs)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {pool.submit(_work, x): i
                               for i, x in enumerate(xs)}
                    for future in as_completed(futures):
                        results[futures[future]] = future.result()
                return results
        """
    }
    assert "REP404" not in program_rule_ids(sources)


def test_rep404_quiet_on_bookkeeping_future_collection():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor, as_completed
            __all__ = ["run"]

            def _work(x):
                return x

            def run(jobs, xs):
                done = []
                count = 0
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_work, x) for x in xs]
                    for future in as_completed(futures):
                        done.append(future)
                        count += 1
                return [f.result() for f in futures]
        """
    }
    # Collecting the finished futures (membership/progress bookkeeping)
    # and counting completions never touch a result: order-insensitive.
    assert "REP404" not in program_rule_ids(sources)


def test_rep404_quiet_when_accumulator_is_resorted():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor, as_completed
            __all__ = ["run"]

            def _work(x):
                return x

            def run(jobs, xs):
                results = []
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_work, x) for x in xs]
                    for future in as_completed(futures):
                        results.append(future.result())
                results.sort()
                return results
        """
    }
    assert "REP404" not in program_rule_ids(sources)


def test_rep404_fires_on_augassign_reduction_of_results():
    sources = {
        "m": """
            from concurrent.futures import ProcessPoolExecutor, as_completed
            __all__ = ["run"]

            def _work(x):
                return x * 0.5

            def run(jobs, xs):
                total = 0.0
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [pool.submit(_work, x) for x in xs]
                    for future in as_completed(futures):
                        total += future.result()
                return total
        """
    }
    assert "REP404" in program_rule_ids(sources)


def test_rep404_fires_on_imap_unordered_loop_variable_append():
    sources = {
        "m": """
            __all__ = ["run"]

            def _work(x):
                return x

            def run(worker_pool, xs):
                rows = []
                for row in worker_pool.imap_unordered(_work, xs):
                    rows.append(row)
                return rows
        """
    }
    assert "REP404" in program_rule_ids(sources)


# -- REP405: frozen store memmap opened writable ------------------------------


def test_rep405_fires_on_memmap_without_mode():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["attach"]

            def attach(path, count):
                return np.memmap(path, dtype=np.int64, shape=(count,))
        """
    }
    assert "REP405" in program_rule_ids(sources)


def test_rep405_fires_on_writable_memmap_mode():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["attach"]

            def attach(path, count):
                return np.memmap(path, dtype=np.int64, mode="r+", shape=(count,))
        """
    }
    assert "REP405" in program_rule_ids(sources)


def test_rep405_fires_on_writable_np_load_mmap():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["attach"]

            def attach(path):
                return np.load(path, mmap_mode="w+")
        """
    }
    assert "REP405" in program_rule_ids(sources)


def test_rep405_fires_on_unfreezing_writeable_flag():
    sources = {
        "m": """
            __all__ = ["unfreeze"]

            def unfreeze(array):
                array.flags.writeable = True
                return array
        """
    }
    assert "REP405" in program_rule_ids(sources)


def test_rep405_quiet_on_read_only_modes():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["attach", "copy_on_write", "load"]

            def attach(path, count):
                return np.memmap(path, dtype=np.int64, mode="r", shape=(count,))

            def copy_on_write(path, count):
                return np.memmap(path, dtype=np.int64, mode="c", shape=(count,))

            def load(path):
                return np.load(path, mmap_mode="r")
        """
    }
    assert "REP405" not in program_rule_ids(sources)


def test_rep405_quiet_on_plain_load_and_nonconstant_mode():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["load", "attach"]

            def load(path):
                return np.load(path)

            def attach(path, count, mode):
                return np.memmap(path, dtype=np.int64, mode=mode, shape=(count,))
        """
    }
    assert "REP405" not in program_rule_ids(sources)


def test_rep405_allowlists_context_delta_row_patching():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["ContextDelta"]

            class ContextDelta:
                def _patch_rows(self, array):
                    array.flags.writeable = True
                    return array
        """
    }
    assert "REP405" not in program_rule_ids(sources)


# -- REP501: cache key misses a payload input ---------------------------------

_REP501_BAD = {
    "m": """
        __all__ = ["matched_sets"]

        def matched_sets(store, context, *, sampler, rng_seed):
            key = store.matched_key(context, tokens=(rng_seed,))
            payload = sampler.sample(context, rng_seed)
            store.store_matched(key, payload)
            return payload
    """
}


def test_rep501_fires_when_sampler_token_dropped_from_key():
    assert "REP501" in program_rule_ids(_REP501_BAD)


def test_rep501_quiet_when_every_payload_input_is_keyed():
    sources = {
        "m": """
            __all__ = ["matched_sets"]

            def matched_sets(store, context, *, sampler, rng_seed):
                key = store.matched_key(
                    context, tokens=(sampler.name, rng_seed)
                )
                payload = sampler.sample(context, rng_seed)
                store.store_matched(key, payload)
                return payload
        """
    }
    assert "REP501" not in program_rule_ids(sources)


def test_rep501_quiet_on_execution_knobs():
    sources = {
        "m": """
            __all__ = ["score_all"]

            def score_all(store, context, groups, jobs):
                key = store.score_key(context, groups=groups)
                table = [(g, len(g), jobs and 1) for g in groups]
                store.store_score(key, table)
                return table
        """
    }
    # ``jobs`` changes how, not what, is computed — exempt by design.
    assert "REP501" not in program_rule_ids(sources)


# -- REP502: cache write bypasses the atomic helper ---------------------------


def test_rep502_fires_on_direct_savez_to_cache_path():
    sources = {
        "m": """
            import numpy as np
            __all__ = ["ShardCache"]

            class ShardCache:
                def __init__(self, root):
                    self.root = root

                def _path(self, key):
                    return self.root / key

                def store_raw(self, key, arrays):
                    target = self._path(key)
                    np.savez(target, **arrays)
        """
    }
    assert "REP502" in program_rule_ids(sources)


def test_rep502_quiet_inside_the_atomic_store_helper():
    sources = {
        "m": """
            import numpy as np
            import os
            __all__ = ["ShardCache"]

            class ShardCache:
                def __init__(self, root):
                    self.root = root

                def _path(self, key):
                    return self.root / key

                def _store(self, key, arrays):
                    target = self._path(key)
                    scratch = target.with_name(target.name + ".tmp")
                    np.savez(scratch, **arrays)
                    os.replace(scratch, target)
        """
    }
    assert "REP502" not in program_rule_ids(sources)


# -- REP503: scoring state / token drift --------------------------------------


def test_rep503_fires_on_unstored_init_parameter():
    sources = {
        "m": """
            __all__ = ["Scorer"]

            class Scorer:
                name = "scorer"

                def __init__(self, alpha, beta):
                    self.alpha = alpha

                def __call__(self, stats):
                    return self.alpha
        """
    }
    assert "REP503" in program_rule_ids(sources)


def test_rep503_fires_on_post_construction_mutation():
    sources = {
        "m": """
            __all__ = ["Scorer"]

            class Scorer:
                name = "scorer"

                def __init__(self, alpha):
                    self.alpha = alpha

                def __call__(self, stats):
                    self.last = stats
                    return self.alpha
        """
    }
    assert "REP503" in program_rule_ids(sources)


def test_rep503_quiet_when_all_state_stored_at_init():
    sources = {
        "m": """
            __all__ = ["Scorer"]

            class Scorer:
                name = "scorer"

                def __init__(self, alpha, beta=2.0):
                    self.alpha = alpha
                    self.beta = beta

                def __call__(self, stats):
                    return self.alpha * self.beta
        """
    }
    assert "REP503" not in program_rule_ids(sources)


def test_rep503_quiet_on_classes_without_scoring_shape():
    sources = {
        "m": """
            __all__ = ["Ensemble"]

            class Ensemble:
                def __init__(self, samples, seed):
                    self.samples = samples

                def run(self):
                    return self.samples
        """
    }
    # No class-level ``name`` string and no __call__: not a scoring
    # function, so the tokens contract does not apply.
    assert "REP503" not in program_rule_ids(sources)


# -- REP607: per-group scalar scoring loop ------------------------------------

_REP607_LOOP = """
    __all__ = ["score"]

    def score(context, member_lists, functions):
        stats_list = batch_group_stats(context, member_lists)
        rows = [
            [float(function(stats)) for function in functions]
            for stats in stats_list
        ]
        return rows
"""

_REP607_FOR_LOOP = """
    __all__ = ["score"]

    def score(context, member_lists, functions):
        rows = []
        for stats in batch_group_stats(context, member_lists):
            row = []
            for function in functions:
                row.append(function(stats))
            rows.append(row)
        return rows
"""


def _rep607_variants(source: str) -> list[str]:
    """The loop over an object batch, and over a columnar batch's lazy
    ``.rows()`` views (REP607's example_bad): both must fire."""
    rows = source.replace(
        "batch_group_stats(context, member_lists)",
        "batch_group_stats_columns(context, member_lists).rows()",
    )
    assert rows != source
    return [source, rows]


def test_rep607_fires_on_scalar_loop_in_engine():
    for source in _rep607_variants(_REP607_LOOP):
        assert "REP607" in program_rule_ids({"repro.engine.fake": source})


def test_rep607_fires_on_scalar_loop_in_service():
    for source in _rep607_variants(_REP607_LOOP):
        assert "REP607" in program_rule_ids({"repro.service.fake": source})


def test_rep607_fires_on_for_loop_variant():
    for source in _rep607_variants(_REP607_FOR_LOOP):
        assert "REP607" in program_rule_ids({"repro.engine.fake": source})


def test_rep607_quiet_outside_engine_and_service():
    # The scalar oracle is legitimate in scoring/ (scalar_score_column),
    # tests and benchmarks; only engine/service hot paths are gated.
    assert "REP607" not in program_rule_ids(
        {"repro.scoring.fake": _REP607_LOOP}
    )


def test_rep607_quiet_on_columnar_path():
    sources = {
        "repro.engine.fake": """
            __all__ = ["score"]

            def score(context, member_lists, functions):
                batch = batch_group_stats_columns(context, member_lists)
                return score_matrix(functions, batch)
        """
    }
    assert "REP607" not in program_rule_ids(sources)


def test_rep607_quiet_on_stats_loop_without_function_dispatch():
    sources = {
        "repro.engine.fake": """
            __all__ = ["sizes"]

            def sizes(context, member_lists):
                stats_list = batch_group_stats(context, member_lists)
                return [stats.n_C for stats in stats_list]
        """
    }
    assert "REP607" not in program_rule_ids(sources)


# -- end-to-end through lint_paths --------------------------------------------


def _write_tree(tmp_path, sources: dict[str, str]):
    paths = []
    for relname, src in sorted(sources.items()):
        target = tmp_path / relname
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src), encoding="utf-8")
        paths.append(target)
    return tmp_path


def test_lint_paths_merges_program_findings_into_file_output(tmp_path):
    tree = _write_tree(tmp_path, {"src/m.py": _REP401_BAD["m"]})
    config = LintConfig(select=("REP401",))
    violations = lint_paths([tree], config)
    assert [v.rule_id for v in violations] == ["REP401"]
    assert violations[0].path.endswith("m.py")


def test_lint_paths_jobs_output_identical_with_program_rules(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "src/bad_worker.py": _REP401_BAD["m"],
            "src/bad_cache.py": _REP501_BAD["m"],
        },
    )
    config = LintConfig(select=("REP401", "REP501"))
    serial = [v.format() for v in lint_paths([tree], config, jobs=1)]
    parallel = [v.format() for v in lint_paths([tree], config, jobs=2)]
    assert serial == parallel
    assert any("REP401" in line for line in serial)
    assert any("REP501" in line for line in serial)


def test_lint_paths_survives_nested_classes(tmp_path):
    # Regression: a nested class used to crash build_program (KeyError on
    # the immediate class name) and take the whole lint run with it.
    tree = _write_tree(
        tmp_path,
        {
            "src/m.py": """
                __all__ = ["Outer"]

                class Outer:
                    class Inner:
                        def run(self):
                            return self.helper()

                        def helper(self):
                            return 1
            """
        },
    )
    config = LintConfig(select=("REP401", "REP501"))
    assert lint_paths([tree], config) == []


def test_lint_paths_survives_program_analysis_failure(tmp_path, monkeypatch, capsys):
    # The per-file pass must still report even if the interprocedural
    # layer dies on a pathological input.
    import repro.devtools.lint as lint_mod

    def boom(items):
        raise RuntimeError("synthetic analysis failure")

    monkeypatch.setattr(lint_mod, "build_program", boom)
    tree = _write_tree(tmp_path, {"src/m.py": _REP401_BAD["m"]})
    config = LintConfig(select=("REP401",))
    violations = lint_paths([tree], config)
    assert violations == []
    assert "interprocedural analysis failed" in capsys.readouterr().err


def test_program_findings_respect_noqa(tmp_path):
    suppressed = _REP401_BAD["m"].replace(
        "context.csr.indices[0] = 7",
        "context.csr.indices[0] = 7  # repro: noqa[REP401]",
    )
    tree = _write_tree(tmp_path, {"src/m.py": suppressed})
    config = LintConfig(select=("REP401",))
    assert lint_paths([tree], config) == []
