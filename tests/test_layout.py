"""Source-layout rules that keep slow paths from coming back."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import zetasteps

SRC = pathlib.Path(zetasteps.__file__).parent


def imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def code_names(path):
    """Identifiers in the code of path, leaving out comments and strings."""
    with tokenize.open(path) as f:
        return {
            tok.string
            for tok in tokenize.generate_tokens(f.readline)
            if tok.type == tokenize.NAME
        }


def test_no_module_imports_decimal():
    # Decimal arithmetic costs tens of microseconds per call; the dd log
    # kernel and float-literal dd constants in ddmath leave no use for it.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "decimal" in imported_modules(f)]
    assert users == []


def test_import_loads_neither_decimal_nor_fractions():
    # The AST check above misses a stdlib module that imports decimal
    # itself, as fractions does on Python 3.11.
    code = "import sys, zetasteps; print('decimal' in sys.modules, 'fractions' in sys.modules)"
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr


def test_batched_figures_leave_numpy_ma_unimported():
    # The figure batches group rows by term count with a sort, not
    # np.unique, whose first call imports numpy.ma: 1.7 MB of peak RSS
    # for a process that runs the figures.
    code = ("import sys, zetasteps.export as ex\n"
            "list(ex.export_limacon(0.5, 1419.0, 1420.0, 5))\n"
            "list(ex.export_surface(0.0, 1.0, 124.0, 125.0, 3, 4))\n"
            "list(ex.export_loops([0.5, 0.505], 2000.0, 2001.0, 5))\n"
            "print('numpy.ma' in sys.modules)")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_no_module_imports_threads_or_processes():
    # The GIL-bound zero-search pool was slower than one thread on 2 CPUs:
    # `zeros --t-lo 10 --t-hi 1000` took 1.95-2.23 s with 2 threads against
    # 1.70-1.83 s with one, for byte-identical output.
    banned = {"concurrent", "threading", "multiprocessing"}
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if banned & set(imported_modules(f))]
    assert users == []


def test_no_module_imports_mpmath():
    # mpmath is a test dependency only: the runtime is numpy-only, and the
    # Gabcke C0-C4 coefficients are float literals, not computed at import.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "mpmath" in imported_modules(f)]
    assert users == []


def test_log_table_named_only_by_ddmath_and_steps():
    # steps.phase_blocks is the one reader of the dd log table.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "log_table" in code_names(f)]
    assert users == ["ddmath.py", "steps.py"]


def test_log_kernel_named_only_by_ddmath():
    # Theta reads the dd log of round(t) through ddmath.dd_log_whole (a
    # float or an ndarray, from the table where it covers it, else from the
    # memo), and the step readers through ddmath.dd_log, never through the
    # kernel itself.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "_dd_log" in code_names(f)]
    assert users == ["ddmath.py"]


def test_theta_helpers_named_only_by_symmetry():
    # One theta-mod reader: every other module reads theta through the
    # public rs_theta, rs_theta_mod or big_q, not a private helper.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if any(n.startswith("_theta") for n in code_names(f))]
    assert users == ["symmetry.py"]


def test_zeros_keeps_no_gram_cache():
    # gram_point solves an ndarray of N in one Newton iteration, and a zero
    # search solves one window of Gram points that serves its grid and every
    # record: no per-N cache is left to fill.  Nor is there one elsewhere:
    # whole-number dd logs have one store, the log table plus ddmath's
    # 1,024-slot memo (a 200,000-entry lru_cache of scalar logs held 56.8 MB
    # of traced memory after 200,000 distinct rs_theta calls).  The one cache
    # left is the CLI's parser, built once per process.
    files = sorted(SRC.glob("*.py"))
    assert [f.name for f in files if "lru_cache" in code_names(f)] == ["cli.py"]
    tree = ast.parse((SRC / "cli.py").read_text())
    cached = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and any("lru_cache" in ast.unparse(d) for d in fn.decorator_list)]
    assert cached == ["_parser"]
    assert "functools" not in set(imported_modules(SRC / "ddmath.py"))


def test_no_module_names_fsum():
    # One summation policy: np.sum within each phase_blocks block plus a
    # running sum over the blocks (np.cumsum plus that carry for prefix
    # sums). On 70,087 head-sum terms at t = 1e5 it errs by 4.2e-14 against
    # mpmath, as math.fsum did, at half the time.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "fsum" in code_names(f)]
    assert users == []


def test_phase_reduction_is_branch_free():
    # One Cody-Waite body serves floats and arrays: no type or value branch
    # and no dd arithmetic (np.where would turn a float into an array).  On
    # a block of 8,192 entries (ddmath.BLOCK; 2-CPU VM) x // 1.0 costs 17-19
    # ns/elem, np.where 1.3-1.5, the 1.5*2**52 rounding trick 0.9-1.0 and a
    # boolean-mask wrap 1.6-2.2; on 65,536 entries np.where cost 6-15.
    tree = ast.parse((SRC / "ddmath.py").read_text())
    bodies = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("mod_twopi", "phase_from_dd_log")
    }
    assert sorted(bodies) == ["mod_twopi", "phase_from_dd_log"]
    banned = {"isinstance", "where", "two_prod", "dd_add"}
    for name, fn in bodies.items():
        nodes = list(ast.walk(fn))
        assert not [n for n in nodes if isinstance(n, (ast.If, ast.IfExp, ast.FloorDiv))], name
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert not banned & used, name


def test_one_block_size_constant():
    # Every array loop over steps (phase_blocks, the row groups of step_sums,
    # whose one row is partial_sum, and of rs_z, stepplot and the log
    # table's growth) reads ddmath.BLOCK: one block edge, and temporaries of
    # one size.  The export writer sizes its pieces and blocks from it too.
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and re.search("BLOCK|CHUNK|GROUP", target.id):
                    defined.append(f"{path.stem}.{target.id}")
    assert defined == ["ddmath.BLOCK"]
    users = [f.name for f in sorted(SRC.glob("*.py")) if "BLOCK" in code_names(f)]
    assert users == ["ddmath.py", "evaluators.py", "export.py", "steps.py"]


def test_render_formats_only_the_cells_numpy_cannot():
    # _render prints every number in [1e-8, 1e15) with numpy; Python's %
    # formats only the other cells (0, inf, NaN, other floats, larger ints,
    # strs), one at a time.  Its loops run per column or per such cell, never
    # per row or per float.  On 49,301 stepplot rows (t = 1500123.4,
    # decimation 10; 2-CPU Xeon VM) the one-template-per-row writer took
    # 0.099 s of a 0.14 s warm pass, some 577 ns per %.15g.
    tree = ast.parse((SRC / "export.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_render"]
    loops = [ast.unparse(n.iter) for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
    assert loops and all(src in ("columns", "enumerate(kinds)", "kinds", "texts") or "slow" in src
                         for src in loops), loops
    formats = [n for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
               and isinstance(n.left, (ast.Constant, ast.Subscript))]
    (per_slow_cell,) = [n for n in ast.walk(fn) if isinstance(n, ast.ListComp)
                        and any("slow" in ast.unparse(g.iter) for g in n.generators)]
    assert len(formats) == 1 and formats[0] in list(ast.walk(per_slow_cell.elt))


def test_two_pi_floor_checked_by_its_readers():
    # The symmetry frame exists from n_p = 1, t = 2pi, on.  Only the readers
    # that need t >= 2pi refuse a smaller t; a caller that hands t on to one
    # of them first lets it refuse, rather than restating the rule with a
    # second check and a second message.  In symmetry, theta (_theta_dd) and
    # frame_of share one check, _floor_check, each with its own message.
    def floor_check(node):
        below = any(
            isinstance(c, ast.Compare) and isinstance(c.ops[0], ast.Lt)
            and isinstance(c.comparators[0], ast.Name) and c.comparators[0].id == "TWOPI"
            for c in ast.walk(node.test)
        )
        raises = any(
            isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
            and getattr(r.exc.func, "id", None) == "DomainError"
            for stmt in node.body for r in ast.walk(stmt)
        )
        return below and raises

    checkers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.If) and floor_check(n) for n in ast.walk(fn)
            ):
                checkers.add(fn.name)
    assert sorted(checkers) == ["_floor_check", "scan_z_sign_changes"]
    tree = ast.parse((SRC / "symmetry.py").read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and "_floor_check" in {getattr(n.func, "id", None) for n in ast.walk(fn)
                                      if isinstance(n, ast.Call)}}
    assert sorted(callers) == ["_theta_dd", "frame_of"]


def test_no_class_subclasses_a_builtin_container():
    # A container subclass can carry hidden attributes on a public return
    # value, as the scan's brackets once carried z at their ends and the
    # Gram window; results are plain containers or named records.
    banned = {"list", "dict", "set", "tuple"}
    subclasses = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id in banned for base in node.bases)
    ]
    assert subclasses == []


def test_symmetric_form_reflects_once_per_grid():
    # Each symmetric-form grid takes its values at |t| and negates the
    # imaginary part where t < 0; the point functions reflect through the
    # grid they call, and eval_reference conjugates its values at |t|.  So
    # steps.shaped only restores the caller's shape, and no function recurses.
    recursive = []
    for name in ("symmetry.py", "evaluators.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == fn.name
                for n in ast.walk(fn)
            ):
                recursive.append(fn.name)
    assert recursive == []
    tree = ast.parse((SRC / "steps.py").read_text())
    (shaped,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "shaped"]
    attrs = {n.attr for n in ast.walk(shaped) if isinstance(n, ast.Attribute)}
    assert not {"imag", "conj", "conjugate"} & attrs


def test_float_or_array_decided_at_the_boundary():
    # One rule for a float or an ndarray t: steps.as_rows reads it as rows,
    # steps.shaped gives the result back as a Python scalar or in t's shape.
    # The others keep a measured float path (_theta_dd's float arithmetic),
    # a 1-D float layout (phase_blocks) or an int n_p (frame_of).
    def checks_ndarray(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(k, ast.Attribute) and k.attr == "ndarray" for k in kinds)

    checkers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(checks_ndarray(n) for n in ast.walk(fn)):
                checkers.add(f"{path.stem}.{fn.name}")
    assert sorted(checkers) == ["steps.as_rows", "steps.phase_blocks", "steps.shaped",
                                "symmetry._theta_dd", "symmetry.frame_of"]
