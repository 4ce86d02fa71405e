"""Rules on the package source itself, checked by parsing it.

Each module-level import is named somewhere in its module, and each
"_"-prefixed module-level def, class or assignment is named somewhere in
the package, so that neither an import nor a helper or key table can
outlive its last use.  No module imports another's "_"-prefixed name: a
name used across modules is public where it is defined.  Only
``io._read_text``, ``io._write_text`` and ``io.file_digests`` open, read,
write or remove a file, so that every file access is hashed in, and
cleaned up by, a ``file_digests()`` block.  Each memo (``functools.cache``,
``lru_cache``, ``cached_property`` or a ``__missing__`` method) is on an
allowlist with its reason, so that no cache outlives the cost it saved.
Every exception class is a ``ConfigError`` but those on an allowlist with
their reason, so that ``main`` reports a refused input through one clause.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "memarray"
TREES = {path.relative_to(SRC.parents[1]).as_posix():
         ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}


def test_sources_found():
    assert "src/memarray/cli.py" in TREES


def test_no_unused_module_level_import():
    bad = []
    for path, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    bad.append(f"{path}:{node.lineno}: {name} is imported "
                               f"but never named")
    assert bad == []


def test_no_unused_private_module_level_name():
    used = set()
    for tree in TREES.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    bad = []
    for path, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name} is defined but never named"
                    for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used]
    assert bad == []


def test_no_private_name_imported_across_modules():
    bad = []
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != "memarray":
                continue
            bad += [f"{path}:{node.lineno}: imports {alias.name} from "
                    f"{'.' * node.level}{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__")]
    assert bad == []


# (module, function) of the only calls that touch a file, and those calls.
FILE_ACCESS_ALLOWED = {("io", "_read_text"), ("io", "_write_text"),
                       ("io", "file_digests")}
FILE_ACCESS = {"open", "read_bytes", "read_text", "write_bytes",
               "write_text", "unlink"}


def test_file_access_only_through_the_io_record():
    bad = []

    def scan(node, path, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, path, module, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name) and f.id == "open"
                        else getattr(f, "attr", None))
                if (name in FILE_ACCESS
                        and (module, func) not in FILE_ACCESS_ALLOWED):
                    bad.append(f"{path}:{child.lineno}: {name} called in "
                               f"{func or 'the module body'}")
            scan(child, path, module, func)

    for path, tree in TREES.items():
        scan(tree, path, Path(path).stem, None)
    assert bad == []


# module.qualname of each memo in the package, and why it is kept.
MEMO_ALLOWED = {
    "cli.build_parser": "building the argparse tree costs more than parsing "
                        "a short command line with it",
    "io._parsed": "parsing and checking a config file costs more than "
                  "reading and hashing it, for repeated in-process calls",
    "io._CountsMemo.__missing__": "parsing a counts table costs more than "
                                  "reading and hashing it, when analyze "
                                  "runs in the process that wrote it",
    "sequence.SequencePlan.modes": "the one definition of a frozen plan's "
                                   "mode order, read by the engine, the "
                                   "expected means and analyze",
}
MEMO_NAMES = {"cache", "lru_cache", "cached_property"}


def _is_memo(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in MEMO_NAMES
            or isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES)


def test_memo_machinery_only_where_allowed():
    found, bad = set(), []

    def scan(node, qual, decorators):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                memo = {id(n) for d in child.decorator_list
                        for n in ast.walk(d) if _is_memo(n)}
                if memo or child.name == "__missing__":
                    found.add(name)
                scan(child, name, memo)
            elif _is_memo(child) and id(child) not in decorators:
                bad.append(f"{qual}:{child.lineno}: {ast.unparse(child)} "
                           f"used other than as a decorator")
            else:
                scan(child, qual, decorators)

    for path, tree in TREES.items():
        scan(tree, Path(path).stem, set())
    bad += [f"{name} is a memo that MEMO_ALLOWED does not name"
            for name in sorted(found - MEMO_ALLOWED.keys())]
    bad += [f"{name} is allowed but is no memo"
            for name in sorted(MEMO_ALLOWED.keys() - found)]
    assert bad == []


# The package's exception classes that are not ConfigErrors, and why.
NOT_CONFIG_ERROR = {
    "CompilationError": "main prints it as one violation: line per rule",
}


def test_every_exception_is_a_config_error():
    bases = {node.name: [ast.unparse(b) for b in node.bases]
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        return (isinstance(builtin, type) and issubclass(builtin, BaseException)
                or any(map(is_exception, bases.get(name, ()))))

    def is_config_error(name):
        return (name == "ConfigError"
                or any(map(is_config_error, bases.get(name, ()))))

    assert {name for name in bases if is_exception(name)
            and not is_config_error(name)} == NOT_CONFIG_ERROR.keys()
