"""The package's import graph is one order with no hidden cycles: every
`algosim` import sits at module level, and each module imports only modules
that come before it in `ORDER`.  `__init__` re-exports and is exempt."""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "algosim"
ORDER = ("crypto", "sortition", "ledger", "consensus", "netsim", "adversary",
         "engine", "modelcheck", "cli")


@functools.cache
def algosim_imports() -> list[tuple[str, int, str, bool]]:
    """(module, line, imported algosim module, at module level) for every
    import of the package in its modules."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
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
                    found.append((path.stem, node.lineno, parts[1],
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
