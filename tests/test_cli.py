import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import monomine
from monomine import filters, langid, pipeline
from monomine.cli import CommandTranslator, main
from monomine.clustering import ClusterMap
from monomine.corpus import MonoCorpus, load_documents, read_annotated, read_corpus, write_corpus

from pipeline_env import build_env
from test_golden import save_golden_decluster_model_renamed


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return build_env(
        tmp_path_factory.mktemp("cli"),
        n_docs=60,
        train_per_lang=120,
        gold_per_lang=30,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chrf"])  # missing required args
        assert err.value.code == 1

    def test_unknown_command_is_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_data_error_is_2(self, capsys, tmp_path):
        code = main(["stats", "--corpus", str(tmp_path / "missing.txt")])
        assert code == 2

    def test_strict_ingest_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["ingest", "--input", str(bad), "--strict"])
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "expected a {languages, counts} object, got list"),
            ('{"languages": ["aa"]}', "missing key 'counts'"),
            ('{"languages": ["aa", "bb"], "counts": [[1]]}', "counts must be square over the language list"),
        ],
        ids=["list", "missing-key", "wrong-shape"],
    )
    def test_malformed_confusion_is_2_and_names_the_path(self, capsys, tmp_path, text, message):
        confusion = tmp_path / "cm.json"
        confusion.write_text(text)
        code = main(["cluster", "--confusion", str(confusion), "--output", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err == f"monomine: error: {confusion}: {message}\n"

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--distance-threshold", "nan"], "distance_threshold must not be NaN"),
            (["--max-size", "0"], "max_size must be >= 1"),
            (["--max-size", "-3"], "max_size must be >= 1"),
        ],
        ids=["nan-threshold", "max-size-0", "max-size-negative"],
    )
    def test_invalid_cut_is_2(self, capsys, tmp_path, option, message):
        confusion = tmp_path / "cm.json"
        confusion.write_text('{"languages": ["aa", "bb", "cc"], "counts": [[8, 2, 0], [3, 7, 0], [0, 1, 9]]}')
        out = tmp_path / "c.json"
        assert main(["cluster", "--confusion", str(confusion), "--output", str(out), *option]) == 2
        assert capsys.readouterr().err == f"monomine: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "tfiif-list", "--corpus", "{c}", "--lang", "aa", "--iif", "{iif}", "--tau", "0"],
             "tau: expected at least 1, got 0"),
            (["build", "tfiif-list", "--corpus", "{c}", "--lang", "aa", "--iif", "{iif}", "--tau", "-2"],
             "tau: expected at least 1, got -2"),
            (["build", "wordlist", "--corpus", "{c}", "--lang", "aa", "--top", "-3"],
             "top: expected at least 1, got -3"),
            (["anomaly", "--corpus", "{c}", "--reference", "{c}", "--top-n", "-2"],
             "top_n: expected at least 1, got -2"),
            (["pare", "--confusion", "{cm}", "--train-sizes", "{sizes}", "--min-precision", "nan"],
             "min_precision: expected a value in [0, 1], got nan"),
            (["pare", "--confusion", "{cm}", "--train-sizes", "{sizes}", "--max-confusion", "1.5"],
             "max_confusion: expected a value in [0, 1], got 1.5"),
            (["pare", "--confusion", "{cm}", "--train-sizes", "{sizes}", "--min-examples", "-1"],
             "min_examples: expected at least 0, got -1"),
            (["train-langid", "--train", "{train}", "--epochs", "-1"], "epochs: expected at least 1, got -1"),
            (["train-langid", "--train", "{train}", "--learning-rate", "inf"],
             "learning_rate: expected a finite value above 0, got inf"),
            (["train-langid", "--train", "{train}", "--batch-size", "0"],
             "batch_size: expected None or at least 1, got 0"),
        ],
        ids=["tau-0", "tau-negative", "top-negative", "top-n-negative", "min-precision-nan", "max-confusion-1.5",
             "min-examples-negative", "epochs-negative", "learning-rate-inf", "batch-size-0"],
    )
    def test_out_of_range_option_is_2(self, capsys, tmp_path, argv, message):
        paths = {name: tmp_path / name for name in ("c", "iif", "cm", "sizes", "train", "out")}
        paths["c"].write_text("a a b\nb c\n")
        filters.IifTable.from_counts({"a": 5, "b": 3, "c": 1}, kappa=2).save(paths["iif"])
        paths["cm"].write_text('{"languages": ["aa", "bb"], "counts": [[8, 2], [3, 7]]}')
        paths["sizes"].write_text('{"aa": 5000, "bb": 5000}')
        paths["train"].write_text("aa\thello\nbb\tworld\n")
        argv = [a.format(**paths) for a in argv]
        if argv[0] in ("build", "train-langid"):
            argv += ["--output", str(paths["out"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"monomine: error: {message}\n"
        assert not paths["out"].exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pare", "--confusion", "{cm}", "--train-sizes", "{bad}"], "expected a {lang: count} object, got list"),
            (["hitrate", "--hyp", "{cm}", "--ref", "{cm}", "--bins", "{bad}"],
             "expected a {ranked_tokens, boundaries} object, got list"),
        ],
        ids=["pare-train-sizes", "hitrate-bins"],
    )
    def test_other_json_inputs_of_the_wrong_shape_are_2(self, capsys, tmp_path, argv, message):
        paths = {"cm": tmp_path / "cm.json", "bad": tmp_path / "bad.json"}
        paths["cm"].write_text('{"languages": ["aa"], "counts": [[1]]}')
        paths["bad"].write_text("[1]")
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == f"monomine: error: {paths['bad']}: {message}\n"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["pare", "--confusion", "{cm}", "--train-sizes", "{bad}"], '{"aa": 1.5}',
             "train size of 'aa' must be an integer, got 1.5"),
            (["pare", "--confusion", "{cm}", "--train-sizes", "{bad}"], '{"aa": 3, "bb": true}',
             "train size of 'bb' must be an integer, got True"),
            (["pare", "--confusion", "{cm}", "--train-sizes", "{bad}"], '{"bb": "x"}',
             "train size of 'bb' must be an integer, got 'x'"),
            (["pipeline", "report", "--manifests", "{bad}"], '{"stages": 1}',
             "expected a list of stages under 'stages', got 1"),
            (["pipeline", "report", "--manifests", "{bad}"], '{"summary": {}}',
             "expected a list of stages under 'stages', got None"),
            (["hitrate", "--hyp", "{cm}", "--ref", "{cm}", "--bins", "{bad}"], '{"ranked_tokens": []}',
             "'boundaries' must be a list of integers"),
            (["hitrate", "--hyp", "{cm}", "--ref", "{cm}", "--bins", "{bad}"],
             '{"ranked_tokens": "ab", "boundaries": [0]}', "'ranked_tokens' must be a list of strings"),
        ],
        ids=["pare-float", "pare-bool", "pare-string", "report-stages-not-a-list", "report-no-stages",
             "hitrate-no-boundaries", "hitrate-tokens-not-a-list"],
    )
    def test_json_values_of_the_wrong_type_are_2(self, capsys, tmp_path, argv, text, message):
        paths = {"cm": tmp_path / "cm.json", "bad": tmp_path / "bad.json"}
        paths["cm"].write_text('{"languages": ["aa"], "counts": [[1]]}')
        paths["bad"].write_text(text)
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == f"monomine: error: {paths['bad']}: {message}\n"

    @pytest.mark.parametrize(
        "argv, data, where",
        [
            (["stats", "--corpus", "{bad}"], b"ok\nnot \xff ok\n", "line 2: not UTF-8"),
            (["dedup", "--input", "{bad}", "--output", "{out}"], b"ok\nnot \xff ok\n", "line 2: not UTF-8"),
            (["build", "wordlist", "--corpus", "{bad}", "--lang", "aa", "--output", "{out}"], b"\xe9\n",
             "line 1: not UTF-8"),
            (["chrf", "--hyp", "{bad}", "--ref", "{bad}"], b"a\n\xe9\n", "line 2: not UTF-8"),
            (["ingest", "--input", "{bad}", "--strict"], b'{"id": "\\ud800", "sentences": []}\n', "line 1: not UTF-8"),
            (["train-langid", "--train", "{bad}", "--output", "{out}"], b"aa\tone\nno tab\n",
             "line 2: expected key<TAB>value"),
            (["pipeline", "run", "--config", "{bad}"], b"input: crawl.jsonl\nstages: [wordlist\n",
             "line 2: bad YAML: expected ',' or ']'"),
            (["pipeline", "report", "--manifests", "{bad}"], b"", "line 1: bad JSON"),
        ],
        ids=["stats", "dedup", "build-wordlist", "chrf", "ingest", "train-langid", "pipeline-run", "pipeline-report"],
    )
    def test_input_errors_are_2_and_name_the_path_and_line(self, capsys, tmp_path, argv, data, where):
        paths = {"bad": tmp_path / "bad", "out": tmp_path / "out"}
        paths["bad"].write_bytes(data)
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"monomine: error: {paths['bad']}, {where}")

    def test_incomplete_mode_flags_are_1(self, capsys):
        # each command has two modes, and each mode's option needs its partner
        for argv, message in [
            (["anomaly", "--corpus", "c.txt"], "--corpus needs --reference"),
            (["anomaly", "--corpus-dir", "d"], "--corpus-dir needs --reference-dir"),
            (["anomaly", "--reference", "r.txt"], "one of the arguments --corpus --corpus-dir is required"),
            (["anomaly", "--corpus", "c.txt", "--reference", "r.txt", "--tsv"], "--tsv needs --corpus-dir"),
            (["dedup", "--input", "c.txt"], "--input needs --output"),
            (["dedup", "--input-dir", "d"], "--input-dir needs --output-dir"),
            (["dedup", "--input", "c.txt", "--input-dir", "d"], "argument --input-dir: not allowed with argument --input"),
        ]:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1, argv
            assert f"error: {message}\n" in capsys.readouterr().err, argv

    def test_partly_annotated_document_is_2(self, capsys, tmp_path):
        path = tmp_path / "annotated.jsonl"
        path.write_text('{"id": "d1", "sentences": [{"text": "a", "lang": "aa", "cluster": 0}, "b"]}\n')
        assert main(["filter", "doc-consistency", "--input", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "monomine: error: sentence 1 of d1 is not annotated\n"

    def test_unsorted_wordlist_is_2_and_names_its_path(self, capsys, tmp_path):
        corpus, wordlist = tmp_path / "aa.txt", tmp_path / "aa.tfiif"
        corpus.write_text("a b\n")
        wordlist.write_text("a\t1\nb\t2\n")
        argv = ["--corpus", corpus, "--lang", "aa", "--list", wordlist, "--output", tmp_path / "out.txt"]
        assert main(["filter", "tfiif", *map(str, argv)]) == 2
        assert capsys.readouterr().err == f"monomine: error: {wordlist}: entries must be sorted by descending score\n"

    def test_empty_iif_corpus_is_2(self, capsys, tmp_path):
        corpus = tmp_path / "web.txt"
        corpus.write_text("\n \n")
        assert main(["build", "iif", "--corpus", str(corpus), "--output", str(tmp_path / "iif.tsv")]) == 2
        assert "no tokens in corpus" in capsys.readouterr().err
        assert not (tmp_path / "iif.tsv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["filter", "wordlist", "--corpus", "{corpus}", "--langs", "aa", "--lists", "{dir}",
              "--threshold", "nan", "--output", "{out}"], "threshold: expected a value in [0, 1], got nan"),
            (["filter", "wordlist", "--corpus", "{corpus}", "--langs", "aa", "--lists", "{dir}",
              "--threshold", "-1", "--output", "{out}"], "threshold: expected a value in [0, 1], got -1.0"),
            (["filter", "tfiif", "--corpus", "{corpus}", "--lang", "aa", "--list", "{list}",
              "--threshold", "nan", "--output", "{out}"], "threshold: expected a value in [0, 1], got nan"),
            (["rrr", "--r-gold", "0.9", "--r-crawl", "0.3", "--rho", "nan"],
             "rho: expected a finite value above 0, got nan"),
            (["rrr", "--r-gold", "0.9", "--r-crawl", "0.3", "--threshold", "nan"],
             "rrr_threshold: expected a finite value of at least 0, got nan"),
            (["rrr", "--r-gold", "0.9", "--r-crawl", "0.3", "--min-crawl-removed", "1.5"],
             "min_crawl_removed: expected a value in [0, 1], got 1.5"),
            (["rrr", "--r-gold", "0.9", "--r-crawl", "0.3", "--min-recall", "nan"],
             "min_recall: expected a value in [0, 1], got nan"),
            (["rrr", "--r-gold", "nan", "--r-crawl", "0.3"], "r_gold: expected a value in [0, 1], got nan"),
        ],
        ids=["wordlist-nan", "wordlist-negative", "tfiif-nan", "rrr-rho-nan", "rrr-threshold-nan",
             "rrr-crawl-removed-above-1", "rrr-recall-nan", "rrr-gold-nan"],
    )
    def test_out_of_range_float_flag_is_2(self, capsys, tmp_path, argv, message):
        paths = {"corpus": tmp_path / "corpus.txt", "dir": tmp_path / "lists", "list": tmp_path / "aa.tfiif",
                 "out": tmp_path / "out.txt"}
        paths["corpus"].write_text("a b\n")
        paths["dir"].mkdir()
        (paths["dir"] / "aa.txt").write_text("a\t2\n")
        paths["list"].write_text("a\t2\nb\t1\n")
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == f"monomine: error: {message}\n"
        assert not paths["out"].exists()


class TestIngest:
    def test_report_on_stdout(self, capsys, tmp_path):
        crawl = tmp_path / "crawl.jsonl"
        crawl.write_text('{"id":"d1","sentences":["a","b"]}\nbroken\n')
        report = run_json(capsys, "ingest", "--input", str(crawl))
        assert report["documents"] == 1
        assert report["skipped"] == 1

    def test_pretty_mode(self, capsys, tmp_path):
        crawl = tmp_path / "crawl.jsonl"
        crawl.write_text('{"id":"d1","sentences":["a"]}\n')
        code, out = run_cli(capsys, "--pretty", "ingest", "--input", str(crawl))
        assert code == 0
        assert "documents: 1" in out


class TestLangIdCommands:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained(env, tmp_path_factory):
        import contextlib
        import io

        import synth

        tmp = tmp_path_factory.mktemp("cli-langid")
        train_tsv = tmp / "train.tsv"
        labeled = synth.labeled_examples(env.langs, per_lang=80, seed=31)
        with open(train_tsv, "w", encoding="utf-8") as fh:
            for text, lang in labeled:
                fh.write(f"{lang}\t{text}\n")
        model_path = tmp / "model.bin"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "train-langid", "--train", str(train_tsv), "--output", str(model_path),
                "--buckets", str(1 << 14), "--epochs", "30",
            ])
        assert code == 0
        return tmp, train_tsv, model_path

    def test_train_and_eval(self, capsys, trained):
        tmp, train_tsv, model_path = trained
        cm_path = tmp / "cm.json"
        report = run_json(
            capsys, "eval-langid", "--model", str(model_path),
            "--eval", str(train_tsv), "--output", str(cm_path),
        )
        assert report["accuracy"] >= 0.99
        assert cm_path.exists()

    def test_pare(self, capsys, trained, tmp_path):
        tmp, train_tsv, model_path = trained
        cm_path = tmp / "cm.json"
        sizes = {lang: 2500 for lang in json.loads(cm_path.read_text())["languages"]}
        sizes_path = tmp_path / "sizes.json"
        sizes_path.write_text(json.dumps(sizes))
        report = run_json(
            capsys, "pare", "--confusion", str(cm_path), "--train-sizes", str(sizes_path),
        )
        assert all(not entry["dropped"] for entry in report.values())

    def test_cluster(self, capsys, trained, tmp_path):
        tmp, _, _ = trained
        out = tmp_path / "clusters.json"
        tsv = tmp_path / "clusters.tsv"
        report = run_json(
            capsys, "cluster", "--confusion", str(tmp / "cm.json"),
            "--output", str(out), "--tsv", str(tsv),
        )
        assert report["n_clusters"] >= 1
        assert out.exists() and tsv.exists()


class TestMetricCommands:
    def test_chrf(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("abc\nxyz\n")
        ref.write_text("abc\nxyz\n")
        report = run_json(capsys, "chrf", "--hyp", str(hyp), "--ref", str(ref))
        assert report["chrf"] == pytest.approx(100.0)

    def test_chrf_length_mismatch_is_data_error(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\n")
        ref.write_text("a\nb\n")
        code, _ = run_cli(capsys, "chrf", "--hyp", str(hyp), "--ref", str(ref))
        assert code == 2

    def test_audit_score(self, capsys):
        report = run_json(
            capsys, "audit-score", "--cc", "0.5", "--cb", "0.2", "--ca", "0.1", "--wd", "0.2",
        )
        assert report["score"] == pytest.approx(0.67)

    def test_rrr(self, capsys):
        report = run_json(capsys, "rrr", "--r-gold", "0.9", "--r-crawl", "0.3")
        assert report["apply_filter"] is True
        assert run_json(capsys, "rrr", "--r-gold", "0.9", "--r-crawl", "0")["rrr"] == math.inf

    def test_bins_and_hitrate(self, capsys, tmp_path):
        ranking = tmp_path / "ranking.txt"
        ranking.write_text("\n".join(f"t{i}" for i in range(10)) + "\n")
        bins_path = tmp_path / "bins.json"
        report = run_json(
            capsys, "build", "bins", "--ranking", str(ranking),
            "--boundaries", "0,2,6", "--output", str(bins_path),
        )
        assert report["n_bins"] == 2
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("t0 t1\nt2\n")
        ref.write_text("t0 t1\nt2 t3\n")
        scores = run_json(
            capsys, "hitrate", "--hyp", str(hyp), "--ref", str(ref), "--bins", str(bins_path),
        )
        assert scores["bins"][0]["hit_rate"] == pytest.approx(1.0)
        assert scores["bins"][1]["hit_rate"] == pytest.approx(0.5)

    def test_rtt_with_external_translator(self, capsys, tmp_path, env):
        # external translator: echoes its input lines unchanged
        script = tmp_path / "echo_translator.py"
        script.write_text("import sys\nsys.stdout.write(sys.stdin.read())\n")
        src = tmp_path / "src.txt"
        import synth

        sentences = [env.langs["aa"].sentence(__import__("random").Random(i)) for i in range(6)]
        src.write_text("\n".join(sentences) + "\n")
        report = run_json(
            capsys, "rtt", "--src", str(src), "--lang", "aa", "--mode", "strict",
            "--translator-cmd", f"{sys.executable} {script}",
            "--model", str(env.root / "langid.bin"),
        )
        # identity round trip, all intermediates predicted aa by the real model
        assert report["score"] == pytest.approx(100.0)
        assert report["valid_fraction"] == 1.0


class TestTranslatorCommand:
    """`--translator-cmd` runs once per batch: N lines in, N lines out."""

    def _rtt(self, capsys, tmp_path, env, body, n_sources=6):
        script = tmp_path / "translator.py"
        script.write_text("import sys\n" + body)
        src = tmp_path / "src.txt"
        rng = __import__("random").Random(5)
        src.write_text("".join(env.langs["aa"].sentence(rng) + "\n" for _ in range(n_sources)))
        code = main([
            "rtt", "--src", str(src), "--lang", "aa",
            "--translator-cmd", f"{sys.executable} {script} {tmp_path / 'runs.log'}",
            "--model", str(env.root / "langid.bin"),
        ])
        return code, capsys.readouterr()

    @staticmethod
    def _runs(tmp_path):
        log = tmp_path / "runs.log"
        return len(log.read_text().splitlines()) if log.exists() else 0

    COUNTING_ECHO = "open(sys.argv[1], 'a').write('run\\n')\nsys.stdout.write(sys.stdin.read())\n"

    def test_one_process_per_direction(self, capsys, tmp_path, env):
        code, out = self._rtt(capsys, tmp_path, env, self.COUNTING_ECHO)
        assert code == 0, out.err
        assert json.loads(out.out)["valid_fraction"] == 1.0
        assert self._runs(tmp_path) == 2

    def test_no_sources_start_no_process(self, capsys, tmp_path, env):
        code, out = self._rtt(capsys, tmp_path, env, self.COUNTING_ECHO, n_sources=0)
        assert code == 0, out.err
        assert json.loads(out.out)["invalid"] is True
        assert self._runs(tmp_path) == 0

    def test_short_batch_is_2_and_names_both_counts(self, capsys, tmp_path, env):
        code, out = self._rtt(capsys, tmp_path, env, "sys.stdout.write(sys.stdin.readline())\n")
        assert code == 2
        assert out.out == ""
        assert out.err == "monomine: error: translator: expected 6 lines, got 1\n"

    def test_failing_command_is_2_with_its_stderr(self, capsys, tmp_path, env):
        code, out = self._rtt(capsys, tmp_path, env, "sys.stderr.write('no model for aa\\n')\nsys.exit(1)\n")
        assert code == 2
        assert out.err == "monomine: error: no model for aa\n"

    def test_lines_split_at_newline_only(self, tmp_path):
        script = tmp_path / "echo.py"
        script.write_text("import sys\nsys.stdout.write(sys.stdin.read())\n")
        translator = CommandTranslator(f"{sys.executable} {script}")
        texts = ["a\u2028b", "c\x85d\x0ce\rf"]
        assert translator.translate_batch(texts, "en", "aa") == texts


class TestImports:
    """Only the commands that build a CSC matrix load scipy."""

    PROBE = "; ".join((
        "import sys",
        "from monomine.cli import main",
        "code = main(sys.argv[1:])",
        "print('scipy' in sys.modules, file=sys.stderr)",
        "sys.exit(code)",
    ))

    def loads_scipy(self, *argv):
        src = str(Path(monomine.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *map(str, argv)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        return done.stderr.splitlines()[-1] == "True"

    def test_commands_without_a_sparse_matrix_leave_scipy_out(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\nab cd\n")
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"languages": ["aa", "bb", "cc"], "counts": [[8, 2, 0], [3, 7, 0], [0, 0, 9]]}))
        for argv in (
            ("stats", "--corpus", corpus),
            ("dedup", "--input", corpus, "--lang", "aa", "--output", tmp_path / "d.txt"),
            ("chrf", "--hyp", corpus, "--ref", corpus),
            ("cluster", "--confusion", cm, "--distance-threshold", "0.8", "--output", tmp_path / "t.json"),
            ("cluster", "--confusion", cm, "--n-clusters", "2", "--output", tmp_path / "k.json"),
        ):
            assert not self.loads_scipy(*argv), argv[0]

    def test_annotate_loads_scipy(self, env, tmp_path):
        assert self.loads_scipy(
            "annotate", "--input", env.crawl_path, "--model", env.root / "langid.bin",
            "--clusters", env.root / "clusters.json", "--output", tmp_path / "annotated.jsonl",
        )


class TestCorpusCommands:
    def test_dedup_single(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a\nb\na\n")
        out = tmp_path / "d.txt"
        report = run_json(
            capsys, "dedup", "--input", str(corpus), "--lang", "aa", "--output", str(out),
        )
        assert report["factor"] == pytest.approx(1.5)
        assert out.read_text() == "a\nb\n"

    def test_dedup_global_dir(self, capsys, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "aa.txt").write_text("x\ny\n")
        (src / "bb.txt").write_text("x\nz\n")
        out_dir = tmp_path / "out"
        report = run_json(
            capsys, "dedup", "--input-dir", str(src), "--output-dir", str(out_dir),
            "--scope", "global",
        )
        assert report["bb"]["after"] == 1
        assert (out_dir / "bb.txt").read_text() == "z\n"

    def test_stats(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\n")
        report = run_json(capsys, "stats", "--corpus", str(corpus))
        assert report == {
            "n_sentences": 1, "n_tokens": 2, "n_chars": 5, "chars_per_sentence": 5.0,
        }

    def test_build_wordlist(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a b\n")
        out = tmp_path / "wl.txt"
        report = run_json(
            capsys, "build", "wordlist", "--corpus", str(corpus), "--lang", "aa",
            "--top", "1", "--output", str(out),
        )
        assert report["entries"] == 1
        assert out.read_text() == "a\t2\n"

    def test_anomaly_single(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("u v w\n" * 5)
        report = run_json(
            capsys, "anomaly", "--corpus", str(corpus), "--reference", str(corpus),
            "--lang", "aa",
        )
        assert report["harmonic"] == 1.0
        assert report["flags"] == ["training_echo"]

    def test_anomaly_batch_tsv(self, capsys, tmp_path):
        d1 = tmp_path / "corpora"
        d2 = tmp_path / "refs"
        d1.mkdir()
        d2.mkdir()
        (d1 / "aa.txt").write_text("u v w\n")
        (d2 / "aa.txt").write_text("u v w\n")
        code, out = run_cli(
            capsys, "anomaly", "--corpus-dir", str(d1), "--reference-dir", str(d2), "--tsv",
        )
        assert code == 0
        assert out.startswith("lang\t")
        assert "\naa\t" in out


class TestPipelineCommands:
    def test_run_and_report(self, capsys, env):
        summary = run_json(capsys, "pipeline", "run", "--config", str(env.config_path))
        assert set(summary["languages"]) == set(env.langs)
        manifests = env.root / "out" / "manifests.json"
        report = run_json(capsys, "pipeline", "report", "--manifests", str(manifests))
        assert "funnel" in report
        code, out = run_cli(
            capsys, "--pretty", "pipeline", "report", "--manifests", str(manifests),
        )
        assert code == 0
        assert out.startswith("language\t")

    def test_annotate_and_filter_doc_consistency(self, capsys, env, tmp_path):
        annotated = tmp_path / "annotated.jsonl"
        report = run_json(
            capsys, "annotate", "--input", str(env.crawl_path),
            "--model", str(env.root / "langid.bin"),
            "--clusters", str(env.root / "clusters.json"),
            "--output", str(annotated),
        )
        assert report["documents"] == 60
        out_dir = tmp_path / "clusters"
        report = run_json(
            capsys, "filter", "doc-consistency", "--input", str(annotated),
            "--output-dir", str(out_dir),
        )
        assert len(list(out_dir.glob("cluster-*.txt"))) >= 1
        assert all(entry["out"] <= entry["in"] for entry in report.values())

    def test_worker_override_below_one_is_2(self, capsys, env):
        assert main(["pipeline", "run", "--config", str(env.config_path), "--workers", "0"]) == 2
        assert capsys.readouterr().err == "monomine: error: workers must be >= 1\n"

    def test_normalized_crawl_runs_through_every_command(self, capsys, env, tmp_path):
        normalized, annotated = tmp_path / "normalized.jsonl", tmp_path / "annotated.jsonl"
        first = run_json(capsys, "ingest", "--input", str(env.crawl_path), "--output", str(normalized))
        again = run_json(capsys, "ingest", "--input", str(normalized), "--strict")
        assert again == {**first, "lines": first["documents"]}
        run_json(
            capsys, "annotate", "--input", str(normalized), "--model", str(env.root / "langid.bin"),
            "--clusters", str(env.root / "clusters.json"), "--output", str(annotated), "--strict",
        )
        assert list(load_documents(annotated, strict=True)) == list(read_annotated(annotated))
        outputs = {}
        for name, crawl in (("raw", env.crawl_path), ("normalized", normalized), ("annotated", annotated)):
            raw = env.config_dict()
            raw["input"] = str(crawl)
            raw["output_dir"] = str(tmp_path / name)
            config = env.root / f"chain-{name}.yaml"  # beside the model and lists it names
            config.write_text(yaml.safe_dump(raw))
            run_json(capsys, "pipeline", "run", "--config", str(config))
            outputs[name] = {p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.txt"))}
        assert outputs["raw"] and outputs["normalized"] == outputs["raw"] == outputs["annotated"]


class TestFilterCommands:
    """Each `filter` subcommand prints the report of the library call it wraps
    and writes that call's corpora."""

    def test_decluster_model_language_missing_from_clusters_is_2(self, capsys, env, tmp_path):
        # routing on a language the map lacks would drop all its sentences as out_of_cluster
        save_golden_decluster_model_renamed(tmp_path / "zz.bin", "ee", "zz")
        crawl = [s.text for doc in load_documents(env.crawl_path) for s in doc.sentences]
        ee = [text for text in crawl if env.truth[text] == "ee"]
        (tmp_path / "in").mkdir()
        write_corpus(MonoCorpus.from_sentences("x", ee), tmp_path / "in" / "cluster-0.txt")
        out = tmp_path / "out"
        argv = ["--input-dir", tmp_path / "in", "--model", tmp_path / "zz.bin",
                "--clusters", env.root / "clusters.json", "--output-dir", out]
        assert main(["filter", "decluster", *map(str, argv)]) == 2
        message = "decluster model languages missing from cluster map: zz"
        assert capsys.readouterr().err == f"monomine: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["wordlist", "decluster", "tfiif", "negative"])
    def test_report_and_corpus_equal_the_library_call(self, capsys, env, tmp_path, stage):
        crawl = [s.text for doc in load_documents(env.crawl_path) for s in doc.sentences]
        clusters = ClusterMap.load_json(env.root / "clusters.json")
        # aa's sentences with bb's mixed in, so that every stage drops some
        mixed = [t for t in crawl if env.truth[t] in ("aa", "bb")]
        path = tmp_path / "in.txt"
        write_corpus(MonoCorpus.from_sentences("aa", mixed), path)
        out = tmp_path / "out"
        if stage == "wordlist":
            lists = {"aa": filters.WordList.load_tsv(env.root / "wordlists" / "aa.txt", "aa", "frequency")}
            want = filters.filter_wordlist(read_corpus(path, "cluster:0"), lists, 0.3)
            argv = ["--corpus", path, "--label", "cluster:0", "--langs", "aa",
                    "--lists", env.root / "wordlists", "--threshold", "0.3", "--output", out]
        elif stage == "decluster":
            # every cluster's corpus holds the whole mix: each sentence is
            # kept in its own cluster and dropped from the others
            (tmp_path / "in").mkdir()
            for cid in clusters.members:
                write_corpus(MonoCorpus.from_sentences("x", mixed), tmp_path / "in" / f"cluster-{cid}.txt")
            model = langid.load_model(env.root / "langid.bin")
            corpora = {cid: read_corpus(path, f"cluster:{cid}") for cid in sorted(clusters.members)}
            predicted = dict(zip(mixed, (lang for lang, _ in model.predict_batch(mixed))))
            got, reports = filters.decluster(corpora, predicted, clusters)
            want = (got, pipeline._entries(reports))
            argv = ["--input-dir", tmp_path / "in", "--model", env.root / "langid.bin",
                    "--clusters", env.root / "clusters.json", "--output-dir", out]
        elif stage == "tfiif":
            corpus = read_corpus(path, "aa")
            iif = filters.IifTable.load(env.root / "iif.tsv")
            filters.build_tfiif_wordlist(corpus, iif, tau=30).save_tsv(tmp_path / "aa.tfiif")
            wordlist = filters.WordList.load_tsv(tmp_path / "aa.tfiif", "aa", "tfiif")
            want = filters.filter_tfiif(corpus, wordlist, 0.4)
            argv = ["--corpus", path, "--lang", "aa", "--list", tmp_path / "aa.tfiif", "--threshold", "0.4",
                    "--output", out]
        else:
            rules = [
                {"lang": "aa", "rule": "token", "pattern": mixed[0].split()[0]},
                {"lang": "aa", "rule": "substring", "pattern": mixed[1].split()[-1]},
                {"lang": "bb", "rule": "substring", "pattern": " "},  # another language's: not applied
            ]
            (tmp_path / "rules.json").write_text(json.dumps(rules))
            aa_rules = [r for r in filters.load_negative_rules(tmp_path / "rules.json") if r.lang == "aa"]
            want = filters.negative_filter(read_corpus(path, "aa"), aa_rules)
            argv = ["--corpus", path, "--lang", "aa", "--rules", tmp_path / "rules.json", "--output", out]

        report = run_json(capsys, "filter", stage, *map(str, argv))
        if stage == "decluster":
            corpora, entries = want
            assert report == entries
            assert sorted(p.stem for p in out.glob("*.txt")) == sorted(corpora)
            for lang, corpus in corpora.items():
                assert read_corpus(out / f"{lang}.txt", lang).sentences == corpus.sentences
            assert any(e["dropped_by_reason"] for e in entries.values())
        else:
            corpus, rep = want
            assert report == rep.to_dict()
            assert read_corpus(out, corpus.lang).sentences == corpus.sentences
            assert 0 < report["out"] < report["in"]
