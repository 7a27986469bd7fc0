"""AST source lint: the repo is clean, and planted defects are caught."""

import ast
import textwrap

from repro.analysis.source_lint import lint_file, lint_source, source_root


def _lint_snippet(tmp_path, code, **kwargs):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(code))
    return lint_file(path, **kwargs)


class TestRepoSources:
    def test_repo_sources_have_no_errors(self):
        report = lint_source()
        assert report.ok("error"), report.render()

    def test_known_unseeded_default_rng_fallbacks_warn(self):
        # The simulators' rng=None fallbacks are deliberate; the lint
        # keeps them visible as warnings without gating on them.
        report = lint_source()
        files = {d.target for d in report.warnings}
        assert any(f.endswith("sim/frame.py") for f in files)

    def test_source_root_is_the_package(self):
        assert (source_root() / "__init__.py").exists()
        assert source_root().name == "repro"


class TestGlobalRngRule:
    def test_np_random_seed_is_an_error(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import numpy as np
            def f():
                np.random.seed(1)
                return np.random.randint(10)
        """)
        assert [d.severity for d in diags] == ["error", "error"]
        assert "np.random.seed" in diags[0].message

    def test_numpy_alias_is_resolved(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import numpy
            def f():
                return numpy.random.shuffle([1, 2])
        """)
        assert [d.severity for d in diags] == ["error"]

    def test_from_import_of_global_rng_function(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            from numpy.random import randint
        """)
        assert [d.severity for d in diags] == ["error"]
        assert "numpy.random.randint" in diags[0].message

    def test_argless_default_rng_is_a_warning(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import numpy as np
            def f(rng=None):
                return rng or np.random.default_rng()
        """)
        assert [d.severity for d in diags] == ["warning"]

    def test_seeded_apis_are_clean(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                ss = np.random.SeedSequence(seed)
                return rng, ss.spawn(2)
        """)
        assert diags == []

    def test_unrelated_random_attribute_is_clean(self, tmp_path):
        # Someone's own object with a .random.seed chain isn't numpy.
        diags = _lint_snippet(tmp_path, """
            def f(sim):
                sim.random.seed(3)
        """)
        assert diags == []


POOL_PREAMBLE = textwrap.dedent("""
    from repro.obs.metrics import WorkerPool
    _WORKER = {}
    _CACHE = {}
    def _init(payload):
        _WORKER["payload"] = payload
    def run(items, payload):
        with WorkerPool(2, initializer=_init, initargs=(payload,)) as pool:
            return pool.map(_shard, items)
""")


class TestWorkerStateRule:
    def test_worker_writing_module_state_is_an_error(self, tmp_path):
        diags = _lint_snippet(tmp_path, POOL_PREAMBLE + textwrap.dedent("""
            def _shard(item):
                _CACHE[item] = item * 2
                return _CACHE[item]
        """))
        assert [d.severity for d in diags] == ["error"]
        assert "_CACHE" in diags[0].message

    def test_global_rebind_in_worker_is_an_error(self, tmp_path):
        diags = _lint_snippet(tmp_path, POOL_PREAMBLE + textwrap.dedent("""
            def _shard(item):
                global _CACHE
                _CACHE = {}
                return item
        """))
        assert any("rebinds module global" in d.message for d in diags)

    def test_worker_dict_is_allowed(self, tmp_path):
        diags = _lint_snippet(tmp_path, POOL_PREAMBLE + textwrap.dedent("""
            def _shard(item):
                return _WORKER["payload"][item]
        """))
        assert diags == []

    def test_initializer_itself_may_write_worker_dict(self, tmp_path):
        # _init assigns into _WORKER; that is the sanctioned idiom.
        diags = _lint_snippet(tmp_path, POOL_PREAMBLE + textwrap.dedent("""
            def _shard(item):
                return item
        """))
        assert diags == []

    def test_custom_worker_state_allowlist(self, tmp_path):
        code = POOL_PREAMBLE + textwrap.dedent("""
            def _shard(item):
                _CACHE[item] = item
                return item
        """)
        assert _lint_snippet(tmp_path, code, worker_state=("_WORKER", "_CACHE")) == []

    def test_worker_pool_state_builder_rebinding_a_global_is_an_error(
        self, tmp_path
    ):
        diags = _lint_snippet(tmp_path, """
            from repro.obs.metrics import WorkerPool
            _TABLE = None
            def _state(payload):
                global _TABLE
                _TABLE = payload
                return payload
            def run(items, payload):
                with WorkerPool(2, initializer=_state, initargs=(payload,)) as pool:
                    return pool.map(_shard, items)
            def _shard(item, state):
                return state[item]
        """)
        assert any("'_state' rebinds module global" in d.message for d in diags)

    def test_engine_and_sweep_state_builders_are_worker_functions(self):
        # Rule 2 sees the repo's worker functions only through
        # ``initializer=`` keywords and ``.map(name, ...)`` calls.
        from repro.analysis.source_lint import _FileLinter

        def workers(relpath):
            path = source_root() / relpath
            return _FileLinter(path, ast.parse(path.read_text()))._worker_functions()

        assert "_shard_state" in workers("decoder/engine.py")
        assert {"_point_state", "_run_shard"} <= workers("estimator/sweep.py")

    def test_non_worker_functions_may_write_module_state(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            _CACHE = {}
            def remember(k, v):
                _CACHE[k] = v
        """)
        assert diags == []


class TestBarePoolRule:
    def test_bare_pool_is_an_error(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import multiprocessing
            def run(fn, items):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(fn, items)
        """)
        assert [d.severity for d in diags] == ["error"]
        assert "WorkerPool" in diags[0].message

    def test_pool_aliases_are_errors(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import Pool as P
            def run():
                return (P(2), mp.get_context("fork").Pool(2),
                        ProcessPoolExecutor(2))
        """)
        assert [d.severity for d in diags] == ["error"] * 3

    def test_executor_module_may_build_the_pool(self, tmp_path):
        path = tmp_path / "obs" / "metrics.py"
        path.parent.mkdir()
        path.write_text("import multiprocessing\npool = multiprocessing.Pool(2)\n")
        assert lint_file(path) == []

    def test_thread_pools_are_clean(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor
            def run(fn, items):
                with ThreadPoolExecutor(2) as pool:
                    return list(pool.map(fn, items))
        """)
        assert diags == []

    def test_repo_builds_exactly_one_pool_inside_the_executor(self):
        # Every map over a process pool is then WorkerPool.map.
        sites = {}
        for path in source_root().rglob("*.py"):
            calls = sum(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "Pool"
                for node in ast.walk(ast.parse(path.read_text()))
            )
            if calls:
                sites["/".join(path.relative_to(source_root()).parts)] = calls
        assert sites == {"obs/metrics.py": 1}


class TestPrintBan:
    def test_bare_print_is_an_error(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            def report(x):
                print(x)
        """)
        assert [d.severity for d in diags] == ["error"]
        assert "repro.obs.echo" in diags[0].message

    def test_main_entry_point_is_exempt(self, tmp_path):
        path = tmp_path / "__main__.py"
        path.write_text("print('usage: ...')\n")
        assert lint_file(path) == []

    def test_echo_and_logging_are_clean(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            from repro.obs import echo, get_logger
            def report(x):
                echo(str(x))
                get_logger(__name__).debug("detail %s", x)
        """)
        assert diags == []

    def test_method_named_print_is_clean(self, tmp_path):
        # Only the builtin: attribute calls like device.print() pass.
        diags = _lint_snippet(tmp_path, """
            def flush(device):
                device.print()
        """)
        assert diags == []


class TestLintFile:
    def test_syntax_error_becomes_a_diagnostic(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        diags = lint_file(path)
        assert [d.severity for d in diags] == ["error"]
        assert "syntax error" in diags[0].message

    def test_diagnostics_carry_the_file_as_target(self, tmp_path):
        diags = _lint_snippet(tmp_path, """
            import numpy as np
            np.random.seed(0)
        """)
        assert diags[0].target.endswith("snippet.py")
        assert "line 3:" in diags[0].message

    def test_lint_source_accepts_explicit_paths(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        report = lint_source([clean])
        assert len(report) == 0
