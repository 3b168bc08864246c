"""The README's reference sections, pinned to the package.

The library map has one row per module.  Each row names, backquoted,
every name the package exports from that module and every cap the
module defines, and names nothing the module lacks.  Every cap is
quoted with its value somewhere in the README, as `MAX_TRIPLES`
(2,000,000), and every such number must be the value.  The JSON output
list names exactly the subcommands the parser registers.  Every
backquoted name with an underscore in the notes on the mathematics is
defined by the package or by the test oracles.  So a name, a cap or a
subcommand that changes fails here until the README follows.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import oracles
import parmon
from parmon import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parmon"
README = (ROOT / "README.md").read_text(encoding="utf-8")
CAP = re.compile(r"(MAX_\w+|CARRIER_CAP)\Z")
QUOTED_CAP = re.compile(r"`(\w+)( \+ 1)?` \(([\d,]+)\)")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def map_rows() -> dict[str, str]:
    """Module name -> contents, from the library map's `parmon.X` rows."""
    rows = re.findall(r"^\| `parmon\.(\w+)` \| (.*) \|$", section("Library map"), re.M)
    assert len(rows) == len(dict(rows)), "a module has two rows"
    return dict(rows)


def exports() -> dict[str, list[str]]:
    """Module name -> the names __init__.py imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}


def caps(module: str) -> list[str]:
    """The module-level MAX_* and CARRIER_CAP constants a module defines."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and CAP.match(target.id)]


def cap_values() -> dict[str, int]:
    return {name: getattr(importlib.import_module(f"parmon.{module}"), name)
            for module in MODULES for name in caps(module)}


def test_library_map_has_one_row_per_module():
    assert sorted(map_rows()) == MODULES


def test_library_map_names_each_export_and_cap_in_its_row():
    rows, found = map_rows(), exports()
    assert set(found) <= set(rows)
    # every public name of the package comes from one of those lists
    public = {n for n, obj in vars(parmon).items()
              if not n.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == {n for names in found.values() for n in names}
    for module, row in rows.items():
        missing = [name for name in found.get(module, []) + caps(module)
                   if f"`{name}`" not in row]
        assert missing == [], module


def test_library_map_names_only_what_its_module_has():
    # a backquoted identifier is an attribute of the module or of a
    # class it exports, such as PartialMonoid's `rows`
    found = exports()
    for module, row in map_rows().items():
        mod = importlib.import_module(f"parmon.{module}")
        classes = [getattr(mod, n) for n in found.get(module, [])
                   if isinstance(getattr(mod, n), type)]
        unknown = [name for name in re.findall(r"`([A-Za-z_]\w*)`", row)
                   if not hasattr(mod, name) and not any(hasattr(c, name) for c in classes)]
        assert unknown == [], module


def test_readme_caps_quote_their_values():
    values = cap_values()
    quoted = QUOTED_CAP.findall(README)
    assert {name for name, _, _ in quoted} == set(values)
    for name, plus_one, number in quoted:
        assert number == f"{values[name] + bool(plus_one):,}", name


def test_notes_name_only_what_the_package_has():
    # identifiers with an underscore are library or oracle names, but
    # for the parameter names the notes quote
    modules = [importlib.import_module(f"parmon.{m}") for m in MODULES] + [oracles]
    quoted = set(re.findall(r"`(\w*_\w*)`", section("Notes on the mathematics")))
    unknown = [name for name in sorted(quoted - {"max_len"})
               if not any(hasattr(mod, name) for mod in modules)]
    assert unknown == []


def test_json_output_lists_every_subcommand():
    registered = re.search(r"\{([\w,-]+)\}", cli.build_parser().format_usage()).group(1)
    listed = re.findall(r"^- `([\w-]+)`:", section("JSON output"), re.M)
    assert listed == registered.split(",")
