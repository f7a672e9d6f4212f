"""The package's import graph is one order with no hidden cycles: every
`algosim` import sits at module level, and each module imports only modules
that come before it in `ORDER`.  `__init__` re-exports and is exempt.  And
a chain is read under its own params and registry: no function takes them
beside a `Chain`.  And no CLI command holds a whole file's text or parses a
whole chain, and only the CLI opens, reads or writes a file."""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "algosim"
ORDER = ("crypto", "sortition", "ledger", "consensus", "netsim", "adversary",
         "engine", "modelcheck", "cli")


@functools.cache
def syntax_trees() -> list[tuple[str, ast.Module]]:
    """(module, parsed source) for every module of the package."""
    return [(path.stem, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))]


@functools.cache
def algosim_imports() -> list[tuple[str, int, str, bool]]:
    """(module, line, imported algosim module, at module level) for every
    import of the package in its modules."""
    found = []
    for stem, tree in syntax_trees():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                full = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import is one of the package's own modules
                module = ".".join(filter(None, ["algosim" if node.level else "",
                                                node.module]))
                full = ([module] if module != "algosim"
                        else [f"algosim.{a.name}" for a in node.names])
            else:
                continue
            for name in full:
                parts = name.split(".")
                if parts[0] == "algosim" and len(parts) > 1:
                    found.append((stem, node.lineno, parts[1],
                                  node in tree.body))
    return found


def test_algosim_imports_sit_at_module_level():
    # a function-level import or an `if TYPE_CHECKING:` block hides a cycle
    nested = [f"{mod}:{line} imports {name}"
              for mod, line, name, top in algosim_imports() if not top]
    assert nested == []


def test_each_module_imports_only_earlier_modules():
    backward = [f"{mod}:{line} imports {name}"
                for mod, line, name, _ in algosim_imports()
                if name not in ORDER[:ORDER.index(mod)]]
    assert backward == []


def chain_reads_with_instance_args() -> list[str]:
    """module.function for every function with a parameter annotated `Chain`
    beside one annotated `ProtocolParams` or `KeyRegistry`: a chain is read
    under its own `params` and `registry`, so such a pair restates them."""
    found = []
    for stem, tree in syntax_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = [{n.id for n in ast.walk(arg.annotation)
                      if isinstance(n, ast.Name)}
                     for arg in a.posonlyargs + a.args + a.kwonlyargs
                     if arg.annotation is not None]
            if (any("Chain" in n for n in names)
                    and any(n & {"ProtocolParams", "KeyRegistry"} for n in names)):
                found.append(f"{stem}.{node.name}")
    return found


def test_no_chain_read_takes_params_or_registry_beside_the_chain():
    assert chain_reads_with_instance_args() == []


def whole_file_reads(stem: str) -> list[str]:
    """module:line of every call in module `stem` that reads a whole file:
    `read_text`, `read_bytes`, `readlines`, or `read` with no argument."""
    found = []
    for module, tree in syntax_trees():
        if module != stem:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and (node.func.attr in ("read_text", "read_bytes", "readlines")
                         or node.func.attr == "read"
                         and not (node.args or node.keywords))):
                found.append(f"{module}:{node.lineno} calls {node.func.attr}")
    return found


def test_cli_reads_no_whole_file():
    # chain and metrics files are read a line at a time; `cp.read(path)`
    # names a config for configparser and passes
    assert whole_file_reads("cli") == []


def test_cli_parses_no_whole_chain():
    # `verify-chain` validates each block as it is read (`read_chain`), so
    # the CLI never builds a whole chain with `chain_from_lines`
    found = [f"cli:{node.lineno} names chain_from_lines"
             for module, tree in syntax_trees() if module == "cli"
             for node in ast.walk(tree)
             if getattr(node, "id", getattr(node, "attr", None)) == "chain_from_lines"
             or isinstance(node, ast.alias) and node.name == "chain_from_lines"]
    assert found == []


FILE_CALLS = {"open", "write_text", "write_bytes", "read_text", "read_bytes"}


def test_only_the_cli_touches_files():
    # the engine hands its blocks to a `write` callback, and the ledger
    # formats and parses text; files are opened at the CLI boundary alone
    found = [f"{module}:{node.lineno} calls {name}"
             for module, tree in syntax_trees() if module != "cli"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", None)
                          or getattr(node.func, "attr", None)]
             if name in FILE_CALLS]
    assert found == []
