"""README.md is the package's contract: every test it names exists, it names
no private identifier, its Python blocks run and print what their comments
say, and its example command lines parse into run configurations."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from entrosteer import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# tests/<file>.py::<class or test>[::<test>], any parametrize id `[...]` left out
NODE_ID = re.compile(r"\btests/[\w/]+\.py(?:::\w+)+")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _test_names(path: Path) -> dict[str, set[str]]:
    """The top-level classes and functions of a test file, each with the names
    of the methods it defines (none for a function), read without importing."""
    names = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        elif isinstance(node, ast.FunctionDef):
            names[node.name] = set()
    return names


class TestNamedTests:
    def test_every_named_test_exists(self):
        node_ids = sorted(set(NODE_ID.findall(README)))
        assert node_ids
        missing = []
        for node_id in node_ids:
            path, *parts = node_id.split("::")
            names = _test_names(ROOT / path) if (ROOT / path).is_file() else {}
            if (parts[0] not in names or len(parts) > 2
                    or len(parts) == 2 and parts[1] not in names[parts[0]]):
                missing.append(node_id)
        assert missing == []


class TestPublicNames:
    def test_no_backticked_name_is_private(self):
        # a leading underscore, but not a dunder such as `__main__`
        spans = re.findall(r"`[^`\n]+`", README)
        assert [s for s in spans if re.search(r"(?<![\w])_[A-Za-z0-9]", s)] == []


class TestCodeBlocks:
    def test_python_blocks_run_and_print_what_their_comments_say(self):
        blocks = _blocks("python")
        assert len(blocks) == 2
        namespace, out = {}, io.StringIO()
        with contextlib.redirect_stdout(out):
            for block in blocks:   # in one namespace, as a reader runs them in turn
                exec(compile(block, "README.md", "exec"), namespace)
        # each print's comment gives the leading digits of what it prints
        digits = [d for block in blocks
                  for d in re.findall(r"^print\(.*#\s*(-?\d+\.\d+)\.\.\.", block, re.M)]
        printed = out.getvalue().splitlines()
        assert len(digits) == len(printed) == 2
        for line, want in zip(printed, digits):
            assert line.startswith(want), (line, want)


class TestCommandLines:
    def test_every_example_parses_into_a_run_config(self, tmp_path, monkeypatch):
        # parsed and checked as the command line would run them, but not run
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ENTROSTEER_SEED", raising=False)
        lines = [line for block in _blocks("sh") for line in block.splitlines()
                 if line.startswith("entrosteer ")]
        assert len(lines) == 5
        for line in lines:
            args = cli._build_parser().parse_args(shlex.split(line)[1:])
            assert cli._config_from_args(args).command == args.command
