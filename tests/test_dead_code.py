"""Every function, method and class defined in src/pihall is referenced
somewhere in src/pihall, by name or as an attribute, outside its own body,
and every parameter with a default is passed by some call there.  A
definition or an option only tests use is dead code that tests keep
alive.

`PYTHONPATH=src python tests/test_dead_code.py --count` prints the code
lines of each src/pihall module and their total: the lines where a token
other than a comment or a line break starts, less the lines of
docstrings."""

import ast
import io
import re
import sys
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import pihall

SRC = Path(__file__).resolve().parent.parent / "src" / "pihall"

# Public API kept without a caller inside the package, one reason each.
ALLOWED = {
    **{name: "exported in pihall.__all__" for name in pihall.__all__},
    "Perm.support": "a permutation's moved points, for library users",
    "PermGroup.stabilizer": "point stabilizer, for library users",
    "ECDReport.d_witness": "the D counterexample a report exposes",
    "partition_stabilizer": "a layer boundary of perfbench/layers.py; "
                            "removed when the benchmark drops it",
    "are_conjugate": "a layer boundary of perfbench/layers.py; removed "
                     "when the benchmark drops it",
}

# Defaulted parameters no call in src/pihall passes, one reason each.
ALLOWED_PARAMS = {
    "cpi_reduce(known)": "test-only special-case registry; removed with "
                         "the registry (ROADMAP item 2)",
    "find_hall(known)": "test-only special-case registry; removed with "
                        "the registry (ROADMAP item 2)",
    "run_example(known)": "test-only special-case registry; removed with "
                          "the registry (ROADMAP item 2)",
    "partition_stabilizer(budgets)": "no caller in the package; kept with "
                                     "the function for the benchmark",
    "are_conjugate(budgets)": "no caller in the package; kept with the "
                              "function for the benchmark",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) for every def and class, methods as
    Class.method."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, DEFS):
                yield prefix + node.name, node
                inner = prefix + node.name + "." \
                    if isinstance(node, ast.ClassDef) else prefix
                yield from walk(node.body, inner)
    yield from walk(tree.body, "")


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _methods(trees) -> dict:
    """Per class name, the names its body defines."""
    return {node.name: {sub.name for sub in node.body
                        if isinstance(sub, DEFS)}
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def _owned_references(node, methods, cls=None) -> Counter:
    """References as (owner, name).  The owner is the class C for `C.name`,
    and for `self.name` or `cls.name` in C's body, when C defines `name`;
    it is None for every other reference (a bare name, an attribute of
    anything else), which may mean any definition of that name."""
    out = Counter()
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Name):
        out[None, node.id] += 1
    elif isinstance(node, ast.Attribute):
        owner = None
        if isinstance(node.value, ast.Name):
            base = node.value.id
            owner = cls if base in ("self", "cls") else base
        out[owner if node.attr in methods.get(owner, ()) else None,
            node.attr] += 1
    for child in ast.iter_child_nodes(node):
        out.update(_owned_references(child, methods, cls))
    return out


def test_no_unreferenced_definitions():
    # a method is referenced by its name on its own class (`C.m`, or
    # `self.m` in C) or on anything else; `D.m` for another class D that
    # defines m refers to D's, so a dead method stays dead when another
    # definition shares its name.  `x.m` on an instance may be either
    trees = _trees()
    methods = _methods(trees)
    refs = Counter()
    for tree in trees.values():
        refs.update(_owned_references(tree, methods))
    dead = []
    for fname, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            cls = qual.split(".")[-2] if "." in qual else None
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the interpreter
            if qual in ALLOWED:
                continue
            own = _owned_references(node, methods, cls)
            keys = [(None, name)] + ([(cls, name)] if cls else [])
            if sum(refs[k] - own[k] for k in keys) <= 0:
                dead.append(f"{fname}: {qual}")
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def _calls(trees):
    """Per called name (a function's name, a method's attribute, a class's
    name for its __init__): the keywords passed, the most positional
    arguments passed, and whether some call unpacks *args or **kwargs."""
    keywords, positional, unpacked = defaultdict(set), Counter(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                unpacked.add(name)
            positional[name] = max(positional[name], len(node.args))
            keywords[name].update(k.arg for k in node.keywords)
    return keywords, positional, unpacked


def test_no_unpassed_defaulted_parameters():
    # calls match definitions by bare name, so a call to any function of
    # the same name counts: the check can miss a dead option, never
    # invent one
    trees = _trees()
    keywords, positional, unpacked = _calls(trees)
    dead = []
    for fname, tree in trees.items():
        for qual, fn in _definitions(tree):
            if isinstance(fn, ast.ClassDef) or (
                    fn.name.startswith("__") and fn.name != "__init__"):
                continue  # dunders other than __init__: the interpreter's
            cls = qual.split(".")[-2] if "." in qual else None
            called = cls if fn.name == "__init__" else fn.name
            if called in unpacked:
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0  # self, cls
            args = fn.args.posonlyargs + fn.args.args
            first_default = len(args) - len(fn.args.defaults)
            params = [(arg.arg, i - skip) for i, arg in enumerate(args)
                      if i >= first_default]
            params += [(arg.arg, None) for arg, default
                       in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if default is not None]
            for param, position in params:
                if param in keywords[called]:
                    continue
                if position is not None and positional[called] > position:
                    continue
                key = f"{fn.name}({param})"
                if key not in ALLOWED_PARAMS:
                    dead.append(f"{fname}: {key}")
    assert not dead, "defaulted parameters no call passes: " + ", ".join(dead)


# -- self-feeding parameters -----------------------------------------------------


def _is_self_call(node, fn) -> bool:
    """A call of fn by its own name: `fn(...)`, or `self.fn(...)` or
    `cls.fn(...)` for a method (not `super().fn(...)`)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == fn.name
    return (isinstance(func, ast.Attribute) and func.attr == fn.name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls"))


def _call_params(fn) -> list[str]:
    """fn's positional parameters in the order a recursive call passes
    them: a method's `self` or `cls` is bound, not passed."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return params[1:] if params[:1] in (["self"], ["cls"]) else params


def _feeds(read, fn, param, names, parents) -> bool:
    """Whether the value of a read only reaches `param` of a recursive call
    of fn or an assignment to one of `names`.  Climbing from the read
    through the expression around it, the first recursive call or
    statement met decides; any other use is a read that counts."""
    child, node = read, parents[read]
    while not (isinstance(node, ast.stmt) or _is_self_call(node, fn)):
        if isinstance(node, (ast.Lambda, ast.comprehension)):
            return False
        child, node = node, parents[node]
    if isinstance(node, ast.Call):
        if child in node.args:
            i = node.args.index(child)
            return _call_params(fn)[i:i + 1] == [param]
        return any(kw.value is child and kw.arg == param
                   for kw in node.keywords)
    if not isinstance(node, ast.Assign) or child is not node.value \
            or len(node.targets) != 1:
        return False
    target = node.targets[0]
    if isinstance(target, ast.Tuple) and isinstance(child, ast.Tuple) \
            and len(target.elts) == len(child.elts):
        # a, b = x, y: each element goes to its own target
        element = read
        while parents[element] is not child:
            element = parents[element]
        target = target.elts[child.elts.index(element)]
    return isinstance(target, ast.Name) and target.id in names


def _self_feeding_params(fn) -> list[str]:
    """Parameters of a recursive fn read only to compute the value passed
    back to the same parameter of a recursive call, directly or through
    locals: start from the parameter and every local, and drop each name
    with a read that counts until none is left to drop."""
    if not any(_is_self_call(node, fn) for node in ast.walk(fn)):
        return []
    parents = {child: node for node in ast.walk(fn)
               for child in ast.iter_child_nodes(node)}
    reads, stored = defaultdict(list), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads[node.id].append(node)
            else:
                stored.add(node.id)
    params = _call_params(fn)
    out = []
    for param in params:
        names = (stored - set(params)) | {param}
        while True:
            kept = {name for name in names
                    if all(_feeds(r, fn, param, names, parents)
                           for r in reads[name])}
            if kept == names:
                break
            names = kept
        if param in names and reads[param]:
            out.append(param)
    return out


def test_no_self_feeding_parameters():
    # a parameter whose every read only computes what the function passes
    # back to it when it recurses (a search threading the inverse of its
    # coset representative that no node reads) is work nobody reads
    found = [f"{fname}: {qual}({param})"
             for fname, tree in _trees().items()
             for qual, fn in _definitions(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for param in _self_feeding_params(fn)]
    assert not found, "self-feeding parameters: " + ", ".join(found)


# -- stabilizer chains ------------------------------------------------------------

CHAIN_MODULES = {"groups.py", "backtrack.py"}


def test_only_chain_modules_name_the_chain():
    # a group builds its chain from its generators (PermGroup.chain); only
    # the chain modules grow a _Chain of their own, to find a group's
    # generators and certify its order (groups.span, the searches)
    named = [fname for fname, tree in _trees().items()
             if fname not in CHAIN_MODULES and (
                 _references(tree)["_Chain"]
                 or any(isinstance(node, ast.alias) and node.name == "_Chain"
                        for node in ast.walk(tree)))]
    assert not named, "_Chain named outside the chain modules: " + \
        ", ".join(named)


def test_no_assert_statements():
    # `python -O` strips assert statements: a check the package relies on
    # raises through `groups.certify` or an explicit error instead
    found = [f"{fname}:{node.lineno}"
             for fname, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/pihall: " + ", ".join(found)


# -- budgets and seed -------------------------------------------------------------

RUN_PARAMS = ("budgets", "seed")
PER_FIELD_PARAMS = {"node_budget", "order_budget", "degree_budget",
                    "element_budget", "check_subgroup"}


def _called_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _run_param_positions(trees):
    """Per called name (as in _calls), one {parameter: position} dict for
    each definition of that name that takes `budgets` or `seed`; the
    position is None for a keyword-only parameter."""
    wanted = defaultdict(list)
    for tree in trees.values():
        for qual, fn in _definitions(tree):
            if isinstance(fn, ast.ClassDef):
                continue
            cls = qual.split(".")[-2] if "." in qual else None
            called = cls if fn.name == "__init__" else fn.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0  # self, cls
            args = fn.args.posonlyargs + fn.args.args
            params = {arg.arg: i - skip for i, arg in enumerate(args)
                      if arg.arg in RUN_PARAMS}
            params.update({arg.arg: None for arg in fn.args.kwonlyargs
                           if arg.arg in RUN_PARAMS})
            if params:
                wanted[called].append(params)
    return wanted


def test_every_call_passes_the_runs_budgets_and_seed():
    # a call that leaves out `budgets` or `seed` runs under the defaults,
    # not the run's.  Calls match definitions by bare name, as in _calls;
    # a call is flagged only when it passes the parameter to no definition
    # of that name that takes it
    trees = _trees()
    wanted = _run_param_positions(trees)
    missing = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            if name not in wanted:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                continue
            passed = {k.arg for k in node.keywords}
            for param in RUN_PARAMS:
                positions = [d[param] for d in wanted[name] if param in d]
                if positions and param not in passed and not any(
                        pos is not None and len(node.args) > pos
                        for pos in positions):
                    missing.append(f"{fname}:{node.lineno}: {name}({param})")
    assert not missing, "calls that drop the run's budgets or seed: " + \
        ", ".join(missing)


def test_only_config_decides_a_limit():
    # a module-level default or a per-field parameter lets a layer run
    # under a limit the run was not given
    trees = _trees()
    found = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            bound = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.append(node.id)
            elif isinstance(node, ast.alias):
                bound.append(node.asname or node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.append(node.name)
            if fname != "config.py":
                found += [f"{fname}:{node.lineno}: binds {name}"
                          for name in bound
                          if re.fullmatch(r"DEFAULT_\w*BUDGET", name)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                found += [f"{fname}:{node.lineno}: parameter {arg.arg}"
                          for arg in a.posonlyargs + a.args + a.kwonlyargs
                          if arg.arg in PER_FIELD_PARAMS]
    assert not found, "limits decided outside pihall.config: " + \
        ", ".join(found)


# -- code size -------------------------------------------------------------------

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(text: str) -> int:
    """Lines where a token other than a comment or layout starts, less the
    lines of module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, *DEFS)) and node.body and \
                isinstance(node.body[0], ast.Expr) and \
                isinstance(node.body[0].value, ast.Constant) and \
                isinstance(node.body[0].value.value, str):
            docstrings.update(range(node.body[0].lineno,
                                    node.body[0].end_lineno + 1))
    starts = {tok.start[0] for tok in tokenize.generate_tokens(
        io.StringIO(text).readline) if tok.type not in _LAYOUT}
    return len(starts - docstrings)


if __name__ == "__main__":
    if sys.argv[1:] != ["--count"]:
        sys.exit("usage: python tests/test_dead_code.py --count")
    counts = {path.name: code_lines(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<18}{count:>6,}")
    print(f"{'total':<18}{sum(counts.values()):>6,}")
