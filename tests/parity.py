"""Behaviour parity between two trees of the repository.

    python tests/parity.py --base REV [--head REV | --worktree] [--fuzz N]

Run from anywhere inside a git checkout.  Each side's ``src/`` is exported
with ``git archive`` into a temporary directory; ``--worktree`` (the default)
takes this checkout's ``src/`` as it is on disk instead.  One child
interpreter per side, ``python -I -B``, imports ``sliceshear`` from that tree
and runs every case of one corpus in process:

- each ``sliceshear`` command in README.md, in human form and with
  ``--json``, in a directory holding README's ``chart.dsl``
- ``--help`` of the program and of each subcommand README names
- both SVG goldens through ``chart``, and README's four error examples
- each class expression of ``ERROR_CORPUS`` in tests/test_dsl.py, parsed as
  that test parses it
- N seeded ``export_json``/``import_json`` round trips, and N mutated
  export documents, read by ``import_json`` and, with the objects in dict
  and list subclasses, by ``obj_to_monomial``/``obj_to_differential``

A CLI case records the exit code, stdout, stderr and the bytes of the file
it writes; a library case records the value's repr or the error's class and
text.  Each case must come out byte-identical on both sides.  The corpus is
built from this checkout's README.md and tests, so both sides run the same
cases.  The harness needs only the standard library and git; pytest does not
collect it.

Exits 0 when every case agrees, 1 when one differs (each difference is
printed), 2 when a tree cannot be exported or a child fails.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
LEVELS = [*range(8), 64, 65]  # monomial levels of the fuzzed documents
PROVENANCES = ("seed", "transported", "generated", "user")
# a swapped-in field value: a bool, a float, a str, None, 3,001 digits, out of range
SWAPS = [True, 2.5, "1", None, 10**3000, -1, 2049]


# -- corpus (built once, from this checkout) -----------------------------------

def corpus(fuzz: int) -> dict:
    sys.path.insert(0, str(TESTS))
    import smoke

    commands = smoke.readme_commands()
    cli = [(f"readme {' '.join(argv + extra)}", argv + extra, {"chart.dsl": smoke.CHART})
           for argv in commands for extra in ([], ["--json"])]
    subcommands = list(dict.fromkeys(argv[0] for argv in commands))
    cli += [(f"help {name}", [name, "--help"], {}) for name in subcommands]
    cli.append(("help", ["--help"], {}))
    for golden in sorted((TESTS / "goldens").glob("*.dsl")):
        cli.append((f"golden {golden.name}", ["chart", golden.name, "-o", "out.svg"],
                    {golden.name: golden.read_text(encoding="utf-8")}))
    for n, (dsl, argv, *_) in enumerate(smoke.ERRORS):
        cli.append((f"error example {n}", argv, {} if dsl is None else {"bad.dsl": dsl}))
    return {"cli": cli, "class_exprs": error_corpus(), "fuzz": fuzz}


def error_corpus() -> list:
    """(text, level) of each ERROR_CORPUS row, read from test_dsl.py's syntax
    tree, so no pytest is imported."""
    tree = ast.parse((TESTS / "test_dsl.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ERROR_CORPUS" for t in node.targets
        ):
            return [[ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])]
                    for row in node.value.elts]
    raise LookupError("tests/test_dsl.py defines no ERROR_CORPUS")


# -- child: every case, against one tree ----------------------------------------

def digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    return f"{len(data)}:{hashlib.sha256(data).hexdigest()[:32]}"


def run_cli(main, argv: list, files: dict) -> dict:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:  # --help
                    code = e.code
        finally:
            os.chdir(here)
        written = {p.name: digest(p.read_bytes())
                   for p in sorted(pathlib.Path(tmp).iterdir()) if p.name not in files}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}


def outcome(call, *args):
    try:
        value = call(*args)
    except Exception as e:  # the class and text are what is compared
        return [type(e).__name__, str(e)]
    return ["value", digest(repr(value))]


class _Dict(dict):
    pass


class _List(list):
    pass


def fuzz_items(s, rng: random.Random) -> list:
    """One to three monomials and differentials at the LEVELS, their maps
    empty, sparse or full."""
    items = []
    for _ in range(rng.randint(1, 3)):
        level = rng.choice(LEVELS)
        group = s.CyclicGroup(level + rng.randint(0, 2))

        def vector():
            fill = rng.choice(["empty", "sparse", "full"])
            low = 1 if fill == "full" else 0
            return tuple(0 if fill == "empty" else rng.randint(low, 4) for _ in range(level))

        def monomial():
            norms = [(rng.randint(1, 2048), rng.randint(1, level), rng.randint(0, 3))
                     for _ in range(rng.randint(0, 3) if level else 0)]
            coeff = rng.choice([1, -1, 3, rng.randint(-(10**20), 10**20)])
            return s.ClassMonomial(group, level, coeff, norms, vector(), vector())

        kind = rng.choice(["monomial", "differential", "family", "transported"])
        if kind == "family" and 1 <= level == group.exponent:
            items.append(s.hhr_family(level - 1, rng.randint(1, 3)))
        elif kind == "transported" and level <= 7:
            items.append(s.transport(s.hu_kriz_seed(rng.randint(1, 3)), level))
        elif kind == "differential":
            items.append(s.Differential(group, rng.randint(2, 40), monomial(), monomial(),
                                        rng.choice(PROVENANCES)))
        else:
            items.append(monomial())
    return items


def mutate(rng: random.Random, obj):
    """``obj`` with one change: a field dropped or swapped, keys added or
    reordered, a bad or malformed norm triple, a map emptied or filled, or a
    bad basis key."""
    if not isinstance(obj, dict):
        return obj
    kind = rng.randrange(7)
    keys = list(obj)
    if kind == 0 and keys:
        obj.pop(rng.choice(keys))
    elif kind == 1 and keys:
        obj[rng.choice(keys)] = rng.choice(SWAPS)
    elif kind == 2:
        obj[rng.choice(["extra", "Group", "", "page"])] = rng.choice([1, None, "x", [], {}])
    elif kind == 3:
        obj = dict(reversed(list(obj.items())))
    elif kind == 4 and isinstance(obj.get("norms"), list):
        norms = obj["norms"]
        triple = rng.choice(norms) if norms else None
        if isinstance(triple, list) and triple and rng.random() < 0.5:
            triple[rng.randrange(len(triple))] = rng.choice(SWAPS + [0])
        else:
            norms.insert(rng.randint(0, len(norms)), rng.choice([[1, 1], [1, 1, 1, 1], "t", 3]))
    elif kind == 5 and type(obj.get("level")) is int and 0 <= obj["level"] <= 65:
        name = rng.choice("au")
        zero_key = "s" if name == "a" else "2s"
        names = [zero_key] + [f"l{i}" for i in range(1, obj["level"])] if obj["level"] else []
        obj[name] = rng.choice([{}, {k: 1 for k in names}, {k: 0 for k in names}])
    elif kind == 6 and isinstance(obj.get("a"), dict):
        obj["a"][rng.choice(["l0", "s", "2s", "l64", "l65", "l99"])] = rng.choice([1] + SWAPS)
    return obj


def subclassed(value):
    """``value`` with every dict and list in a subclass of it."""
    if isinstance(value, dict):
        return _Dict({k: subclassed(v) for k, v in value.items()})
    if isinstance(value, list):
        return _List([subclassed(v) for v in value])
    return value


def child(src: str, corpus_path: str, out_path: str) -> None:
    import warnings

    sys.path.insert(0, src)
    import sliceshear as s
    from sliceshear import cli, dsl

    warnings.simplefilter("ignore")
    spec = json.loads(pathlib.Path(corpus_path).read_text(encoding="utf-8"))
    results = {}
    for name, argv, files in spec["cli"]:
        results[name] = run_cli(cli.main, argv, files)
    for n, (text, level) in enumerate(spec["class_exprs"]):
        results[f"class expression {n} {text!r}"] = outcome(
            lambda: dsl.print_canonical(dsl.parse_class_expr(text, s.CyclicGroup(2), level, 7, 4))
        )
    for n in range(spec["fuzz"]):
        rng = random.Random(f"parity:{n}")
        items = fuzz_items(s, rng)
        data = s.export_json(items)
        results[f"round trip {n}"] = [digest(data), outcome(s.import_json, data)]
        doc = json.loads(data)
        for _ in range(rng.randint(1, 3)):
            idx = rng.randrange(len(doc))
            where = rng.choice([None, "source", "target"])
            if where and isinstance(doc[idx], dict) and isinstance(doc[idx].get(where), dict):
                doc[idx][where] = mutate(rng, doc[idx][where])
            else:
                doc[idx] = mutate(rng, doc[idx])
        results[f"mutated {n}"] = outcome(s.import_json, json.dumps(doc))
        for idx, obj in enumerate(subclassed(doc)):
            is_diff = isinstance(obj, dict) and "page" in obj
            read = s.obj_to_differential if is_diff else s.obj_to_monomial
            results[f"mutated {n} subclassed item {idx}"] = outcome(read, obj, f"items[{idx}]")
    pathlib.Path(out_path).write_text(json.dumps(results), encoding="utf-8")


# -- parent: export, run, compare ---------------------------------------------

def export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest / "src"


def run_side(src: pathlib.Path, corpus_path: pathlib.Path, out: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SLICESHEAR_COLOR"}
    env["COLUMNS"] = "80"  # argparse wraps help at the terminal's width
    proc = subprocess.run(
        [sys.executable, "-I", "-B", __file__, "--child", str(src), str(corpus_path), str(out)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode:
        raise RuntimeError(f"child on {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def compare(base: dict, head: dict) -> list[str]:
    diffs = []
    for name in sorted(set(base) | set(head)):
        a, b = base.get(name), head.get(name)
        if a != b:
            diffs.append(f"{name}:\n  base {json.dumps(a)[:400]}\n  head {json.dumps(b)[:400]}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(*argv[1:4])
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    side = p.add_mutually_exclusive_group()
    side.add_argument("--head", help="git revision of the head side")
    side.add_argument("--worktree", action="store_true",
                      help="the head side is this checkout's src/ as it is on disk (default)")
    p.add_argument("--fuzz", type=int, default=50,
                   help="seeded round trips and mutated documents (default 50)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        try:
            base_src = export(args.base, tmp / "base")
            head_src = ROOT / "src" if args.head is None else export(args.head, tmp / "head")
        except subprocess.CalledProcessError as e:
            print(f"parity: git archive failed: {e.stderr.decode(errors='replace')}", file=sys.stderr)
            return 2
        spec = corpus(args.fuzz)
        corpus_path = tmp / "corpus.json"
        corpus_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            base = run_side(base_src, corpus_path, tmp / "base.json")
            head = run_side(head_src, corpus_path, tmp / "head.json")
        except RuntimeError as e:
            print(f"parity: {e}", file=sys.stderr)
            return 2
    diffs = compare(base, head)
    head_name = args.head or "the worktree"
    print(f"parity: {len(base)} cases ({len(spec['cli'])} CLI calls, "
          f"{len(spec['class_exprs'])} class expressions, {args.fuzz} round trips and "
          f"{args.fuzz} mutated documents), {args.base} vs {head_name}: "
          f"{len(diffs) or 'no'} difference{'' if len(diffs) == 1 else 's'}")
    for diff in diffs:
        print(f"DIFF {diff}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
