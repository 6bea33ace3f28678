"""Every top-level function and class in `src/bircheck` has a caller that is
not a test: a reference from `src/` outside its own definition, from the
benchmark harness in `perfbench/`, or a `pyproject.toml` entry point.  The
few kept for the tests' sake are listed in ALLOWED, each with its reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALLOWED = {
    "bircheck.disasm.print_listing": "criterion 9's print/parse round trip",
    "bircheck.disasm.instruction_lines": "criterion 9's print/parse round trip",
    "bircheck.contracts.translation_check":
        "translation equivalence; the tests run it, ROADMAP item 3 reports it",
    "bircheck.symexec.matches": "the matching judgment the symexec docstring defines",
    "bircheck.corpus.chacha.double_round": "ChaCha20 oracle the corpus tests use",
    "bircheck.corpus.asm.beq": "corpus.asm instruction helper, one per branch kind used",
}


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package(path, module):
    return module if path.name == "__init__.py" else module.rpartition(".")[0]


def _sources():
    """(path, module name or None, tree) for src/ and the non-test perfbench/."""
    out = [(p, _module_name(p)) for p in sorted(SRC.rglob("*.py"))]
    out += [(p, None) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return [(p, m, ast.parse(p.read_text())) for p, m in out]


def _imports(path, module, tree, modules):
    """Local name -> ("module", M) or ("attr", M, name), from every import in
    the file (function-local ones too)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = ("module", a.name)
                else:
                    names[a.name.split(".")[0]] = ("module", a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = _package(path, module).split(".")
                pkg = pkg[:len(pkg) - node.level + 1]
                base = ".".join(pkg + ([base] if base else []))
            for a in node.names:
                full = f"{base}.{a.name}"
                names[a.asname or a.name] = (("module", full) if full in modules
                                             else ("attr", base, a.name))
    return names


def test_every_src_definition_has_a_caller_outside_tests():
    sources = _sources()
    modules = {m for _, m, _ in sources if m}
    files = [(m, t, _imports(p, m, t, modules)) for p, m, t in sources]
    defs = {(m, n.name) for m, tree, _ in files if m for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    imports = {m: local for m, _, local in files if m}

    def canon(mod, name):
        """The definition (module, name) that `mod.name` denotes, following
        re-exports such as a package's `from .backend import check`."""
        kind = imports.get(mod, {}).get(name)
        if (mod, name) not in defs and kind and kind[0] == "attr":
            return canon(kind[1], kind[2])
        return (mod, name)

    referenced = set()
    for module, tree, local in files:
        def as_module(e):
            if isinstance(e, ast.Name) and local.get(e.id, ("",))[0] == "module":
                return local[e.id][1]
            if isinstance(e, ast.Attribute):
                outer = as_module(e.value)
                if outer and f"{outer}.{e.attr}" in modules:
                    return f"{outer}.{e.attr}"
            return None

        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    if module and (module, node.id) in defs and node.id != own:
                        referenced.add((module, node.id))
                    kind = local.get(node.id)
                    if kind and kind[0] == "attr":
                        referenced.add(canon(kind[1], kind[2]))
                elif isinstance(node, ast.Attribute):
                    mod = as_module(node.value)
                    if mod:
                        referenced.add(canon(mod, node.attr))
                elif isinstance(node, (ast.Tuple, ast.List, ast.Call)):
                    # (module, "name") pairs, as in perfbench's PATCHES and getattr
                    items = node.args if isinstance(node, ast.Call) else node.elts
                    for a, b in zip(items, items[1:]):
                        mod = as_module(a)
                        if mod and isinstance(b, ast.Constant) and isinstance(b.value, str):
                            referenced.add(canon(mod, b.value))

    scripts = (ROOT / "pyproject.toml").read_text()
    for mod, fn in re.findall(r'^\S+\s*=\s*"([\w.]+):(\w+)"', scripts, re.M):
        referenced.add(canon(mod, fn))

    uncalled = {f"{m}.{n}" for m, n in defs - referenced}
    assert not uncalled - set(ALLOWED), \
        f"no caller outside tests: {sorted(uncalled - set(ALLOWED))}"
    # the allowlist names only definitions that still have no caller
    assert not set(ALLOWED) - uncalled, \
        f"allowed but called or gone: {sorted(set(ALLOWED) - uncalled)}"
