"""End-to-end CLI behavior: commands, exit codes, reproducibility."""

import inspect
import json
import logging

import pytest

from irflab.cli import build_parser, main
from irflab.config import ConfigError
from irflab.corpus import TokenizerConfig
from irflab.embeddings import TrainConfig, load_model, save_model
from irflab.evaluation import DEFAULT_PERMUTATIONS
from irflab.experiments import load_engine, significance_between
from irflab.retrieval import read_run
from irflab.synthgen import GeneratorConfig


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small generated dataset shared by the CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    code = run_cli("gen-synth", "--queries", "8", "--relevant-per-query", "4",
                   "--noise", "40", "--vocab", "96", "--seed", "5",
                   "--output-dir", str(out))
    assert code == 0
    return out


def experiment_config(synth_dir, out_dir, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "output_dir": str(out_dir),
        "corpus": {
            "passages": str(synth_dir / "corpus.jsonl"),
            "queries": str(synth_dir / "queries.tsv"),
            "qrels": str(synth_dir / "qrels.txt"),
        },
        "tokenizer": {"stopwords": "none", "stemming": "none"},
        "retrieval": {"mu": 300.0},
        "feedback": {"methods": ["rm3"], "m": 5, "alpha_interp": 0.5},
        "session": {"settings": [[2, 2]]},
        "evaluation": {"metrics": ["map100", "ndcg20"]},
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGenSynth:
    def test_writes_three_files(self, synth_dir):
        for name in ("corpus.jsonl", "queries.tsv", "qrels.txt"):
            assert (synth_dir / name).exists()

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen-synth", "--queries", "4", "--relevant-per-query", "3",
                           "--noise", "10", "--vocab", "48", "--seed", "9",
                           "--output-dir", str(out)) == 0
        assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()


class TestTrainEmbeddings:
    def test_deterministic_rerun_identical_bytes(self, synth_dir, tmp_path):
        out_a, out_b = tmp_path / "a.emb", tmp_path / "b.emb"
        for out in (out_a, out_b):
            code = run_cli("train-embeddings", "--corpus", str(synth_dir / "corpus.jsonl"),
                           "--mode", "pvc", "--out", str(out), "--dim", "8",
                           "--epochs", "1", "--seed", "2", "--deterministic")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_corpus_exits_2(self, tmp_path):
        code = run_cli("train-embeddings", "--corpus", str(tmp_path / "nope.jsonl"),
                       "--mode", "pvc", "--out", str(tmp_path / "x.emb"))
        assert code == 2

    def test_default_flags_match_training_protocol(self):
        args = build_parser().parse_args(
            ["train-embeddings", "--corpus", "x", "--mode", "pvc", "--out", "y"])
        assert (args.dim, args.negatives, args.learning_rate, args.batch_size) == (100, 10, 0.05, 256)
        assert args.corruption_q == 0.9


class TestFlagDefaults:
    def test_defaults_are_the_configs(self):
        parser = build_parser()
        gen = parser.parse_args(["gen-synth"])
        assert GeneratorConfig(num_queries=gen.queries, passages_per_query_relevant=gen.relevant_per_query,
                               num_noise_passages=gen.noise, vocab_size=gen.vocab,
                               topic_concentration=gen.concentration) == GeneratorConfig()
        train = vars(parser.parse_args(["train-embeddings", "--corpus", "x", "--mode", "pvc", "--out", "y"]))
        fields = ("dim", "negatives", "learning_rate", "batch_size", "window", "epochs", "corruption_q")
        assert {name: train[name] for name in fields} == {name: getattr(TrainConfig(), name) for name in fields}
        significance = parser.parse_args(["significance", "--run-a", "a", "--run-b", "b", "--qrels", "q"])
        assert significance.permutations == DEFAULT_PERMUTATIONS
        assert inspect.signature(significance_between).parameters["permutations"].default == DEFAULT_PERMUTATIONS


class TestFlagValues:
    @pytest.mark.parametrize("argv, problem", [
        (["gen-synth", "--queries", "0"], "all generator counts must be >= 1"),
        (["gen-synth", "--concentration", "0"], "topic_concentration must be in (0, 1]"),
        (["gen-synth", "--queries", "50", "--vocab", "24"], "vocabulary of 24 too small for 50 topics"),
        (["train-embeddings", "--dim", "0"], "dim, negatives, batch_size, window, epochs must be >= 1"),
        (["train-embeddings", "--corruption-q", "1.5"], "corruption_q must be in [0, 1)"),
        (["eval", "--metrics", " , "], "--metrics names no metric"),
    ], ids=["queries", "concentration", "vocab", "dim", "corruption-q", "metrics"])
    def test_out_of_range_flag_exits_2_before_any_output(self, synth_dir, tmp_path, capsys, argv, problem):
        run = tmp_path / "a.run"
        run.write_text("q000 Q0 p1 1 1.0 t\n")
        out = tmp_path / "out"
        where = {"gen-synth": ["--output-dir", str(out)],
                 "train-embeddings": ["--corpus", str(synth_dir / "corpus.jsonl"), "--mode", "pvc",
                                      "--out", str(out), "--epochs", "1"],
                 "eval": ["--run", str(run), "--qrels", str(synth_dir / "qrels.txt")]}[argv[0]]
        assert run_cli(*argv, *where) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and problem in captured.err
        assert captured.out == "" and not out.exists()


class TestRunIrf:
    def test_query_with_no_token_in_the_collection_is_dropped(self, tmp_path, caplog):
        # rm3 used to rank q2 on all-zero scores, then rocchio refused it and the run exited 1
        (tmp_path / "corpus.jsonl").write_text("".join(
            json.dumps({"id": f"p{i}", "doc_id": f"d{i}", "text": text}) + "\n"
            for i, text in enumerate(["apple pie", "apple tart", "banana split", "cherry cake"])))
        (tmp_path / "queries.tsv").write_text("q1\tapple\nq2\tzucchini\n")
        (tmp_path / "qrels.txt").write_text("q1 0 p0 1\nq1 0 p1 1\nq2 0 p2 1\n")
        out_dir = tmp_path / "out"
        cfg = experiment_config(tmp_path, out_dir, session={"settings": [[1, 2]]},
                                feedback={"methods": ["rm3", "rocchio"], "m": 5})
        with caplog.at_level(logging.WARNING, logger="irflab"):
            assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 0
        for method in ("rm3", "rocchio"):
            assert list(read_run(out_dir / f"run_irf_{method}_1x2.txt")) == ["q1"]
        assert [r.getMessage() for r in caplog.records if "q2" in r.getMessage()] == [
            "query q2: no token occurs in the collection; dropped"]

    def test_query_whose_terms_are_in_every_passage_is_ranked_by_rocchio(self, tmp_path):
        # q2's one term is in every passage, so its tf-idf vector is empty; rocchio
        # used to refuse q2 after every rm3 column had run, and the run exited 1
        texts = ["apple banana", "apple cherry", "apple grape pie", "apple tart", "apple cake cherry"]
        (tmp_path / "corpus.jsonl").write_text("".join(
            json.dumps({"id": f"p{i}", "doc_id": f"d{i}", "text": text}) + "\n" for i, text in enumerate(texts)))
        (tmp_path / "queries.tsv").write_text("q1\tbanana cherry\nq2\tapple\nq3\tcherry grape\n")
        (tmp_path / "qrels.txt").write_text("q1 0 p0 1\nq1 0 p1 1\nq2 0 p3 1\nq3 0 p2 1\nq3 0 p4 1\n")
        out_dir = tmp_path / "out"
        cfg = experiment_config(tmp_path, out_dir, session={"settings": [[1, 2]]},
                                feedback={"methods": ["rm3", "rocchio"], "m": 5},
                                evaluation={"metrics": ["map100"], "folds": 2})
        assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 0
        run = read_run(out_dir / "run_irf_rocchio_1x2.txt")
        assert list(run) == ["q1", "q2", "q3"]
        # the first block is BM25's, all zero for q2, so the id tie-break's
        assert [pid for pid, _ in run["q2"]][0] == "p0"
        assert sorted(pid for pid, _ in run["q2"]) == [f"p{i}" for i in range(5)]

    def test_emits_runs_and_summaries(self, synth_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir,
                                session={"settings": [[2, 2], [4, 1]]},
                                feedback={"methods": ["rm3", "rocchio"], "m": 5})
        code = run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg))
        assert code == 0
        for tag in ("rm3_2x2", "rm3_4x1", "rocchio_2x2", "rocchio_4x1"):
            assert (out_dir / f"run_irf_{tag}.txt").exists()
            assert (out_dir / f"perquery_{tag}.csv").exists()
            assert (out_dir / f"trace_{tag}.jsonl").exists()
        assert (out_dir / "summary_map100.csv").exists()
        run = read_run(out_dir / "run_irf_rm3_2x2.txt")
        assert len(run) == 8

    def test_table_names_the_objective_metric(self, synth_dir, tmp_path, capsys):
        cfg = experiment_config(synth_dir, tmp_path / "out", evaluation={"metrics": ["ndcg20", "map100"]})
        assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("mean ndcg20 of freezing rank lists\n")
        assert "MAP@100" not in stdout and "map100" not in stdout
        assert (tmp_path / "out" / "summary_ndcg20.csv").exists()

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path):
        typo = experiment_config(synth_dir, tmp_path / "out")
        typo["sessions"] = {}
        unread = experiment_config(synth_dir, tmp_path / "out")
        unread["evaluation"]["permutations"] = 1000  # no code reads it
        for cfg in (typo, unread):
            assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 2

    def test_wrong_schema_version_exits_2(self, synth_dir, tmp_path):
        cfg = experiment_config(synth_dir, tmp_path / "out", schema_version=99)
        assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 2

    def test_folds_below_two_or_not_integer_exit_2(self, synth_dir, tmp_path, capsys):
        # one fold leaves every training set empty, so the grid choice
        # would be the first point whatever the scores
        for folds in (1, 0, -3, 2.5, True, "4"):
            out_dir = tmp_path / "out"
            cfg = experiment_config(synth_dir, out_dir)
            cfg["retrieval"]["mu_grid"] = [30.0, 300.0]
            cfg["evaluation"]["folds"] = folds
            assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 2
            assert "evaluation.folds" in capsys.readouterr().err
            assert not (out_dir / "chosen_params_rm3_2x2.json").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("session", "depth", 0, "session.depth must be an integer >= 1"),
        ("session", "depth", "100", "session.depth must be an integer >= 1"),
        ("session", "settings", [[0, 10]], "per_iter and iterations must be integers >= 1"),
        ("session", "settings", [[5, 2.0]], "per_iter and iterations must be integers >= 1"),
        ("feedback", "m", "20", "feedback.m must be an integer"),
        ("feedback", "alpha_interp", True, "feedback.alpha_interp must be a number"),
        ("erm", "neighbors", 2.5, "erm.neighbors must be an integer"),
        ("retrieval", "mu", True, "retrieval.mu must be a number"),
        ("retrieval", "mu", "300", "retrieval.mu must be a number"),
        ("fusion", "lambda_sf", True, "fusion.lambda_sf must be a number"),
        ("retrieval", "mu_grid", [300.0, True, "x"], "retrieval.mu_grid entry True: retrieval.mu must be a number"),
        ("retrieval", "mu_grid", [300.0, -5.0], "retrieval.mu_grid entry -5.0: mu must be > 0"),
        ("feedback", "m_grid", [5, 2.5], "feedback.m_grid entry 2.5: feedback.m must be an integer"),
        ("feedback", "alpha_grid", ["0.5"], "feedback.alpha_grid entry '0.5': feedback.alpha_interp must be a number"),
        ("fusion", "lambda_grid", [], "fusion.lambda_grid must be a non-empty list"),
        ("feedback", "methods", ["rm3", "bm25"], "unknown feedback.methods entry 'bm25'"),
        ("onerel", "methods", "rm4", "unknown onerel.methods entry 'rm4'"),
        ("feedback", "methods", [], "feedback.methods must be a non-empty list"),
        ("onerel", "methods", [], "onerel.methods must be a non-empty list"),
        ("fusion", "enabled", "false", "fusion.enabled must be true or false"),
        (None, "seed", 1.5, "seed must be an integer >= 0"),
        (None, "seed", "x", "seed must be an integer >= 0"),
        (None, "seed", -1, "seed must be an integer >= 0"),
        ("onerel", "draws", 1.5, "onerel.draws must be an integer >= 1"),
        ("onerel", "draws", "x", "onerel.draws must be an integer >= 1"),
        ("onerel", "draws", 0, "onerel.draws must be an integer >= 1"),
        ("evaluation", "metrics", ["map1000"], "unknown evaluation.metrics entry 'map1000'"),
        ("evaluation", "metrics", "map100", "evaluation.metrics must be a non-empty list"),
        ("evaluation", "metrics", [], "evaluation.metrics must be a non-empty list"),
    ])
    @pytest.mark.parametrize("command", ["run-irf", "run-onerel"])
    def test_bad_session_and_feedback_values_exit_2_before_any_work(
            self, synth_dir, tmp_path, capsys, command, section, key, value, message):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir)
        (cfg.setdefault(section, {}) if section else cfg)[key] = value  # None: the top level
        assert run_cli(command, "--config", write_config(tmp_path / "cfg.json", cfg)) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()  # refused before the engine loaded

    def test_cv_grid_writes_chosen_params(self, synth_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir)
        cfg["retrieval"]["mu_grid"] = [30.0, 300.0]
        cfg["evaluation"]["folds"] = 4
        code = run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg))
        assert code == 0
        chosen = json.loads((out_dir / "chosen_params_rm3_2x2.json").read_text())
        assert len(chosen) == 4
        assert all(c["mu"] in (30.0, 300.0) for c in chosen)

    def test_default_settings_emit_four_run_files(self, synth_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir)
        del cfg["session"]  # default protocol: 10x1, 5x2, 2x5, 1x10
        code = run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg))
        assert code == 0
        runs = sorted(p.name for p in out_dir.glob("run_irf_*.txt"))
        assert runs == ["run_irf_rm3_10x1.txt", "run_irf_rm3_1x10.txt",
                        "run_irf_rm3_2x5.txt", "run_irf_rm3_5x2.txt"]

    def test_seeded_rerun_identical_run_files(self, synth_dir, tmp_path):
        model_path = tmp_path / "pvc.emb"
        train_cfg = write_config(tmp_path / "train.json", experiment_config(synth_dir, tmp_path))
        assert run_cli("train-embeddings", "--config", train_cfg, "--corpus", str(synth_dir / "corpus.jsonl"),
                       "--mode", "pvc", "--out", str(model_path), "--dim", "8",
                       "--epochs", "1", "--seed", "4") == 0
        variants = {"plain": {}}
        for mode in ("pvc", "avg_w2v"):
            variants[mode] = dict(
                feedback={"methods": ["rm3", "erm"], "m": 5, "alpha_interp": 0.5},
                embeddings={"model_path": str(model_path), "representation_mode": mode},
                fusion={"enabled": True, "lambda_sf": 2.0},
            )
        outs = []
        for sub in ("x", "y"):
            files = {}
            for name, overrides in variants.items():
                out_dir = tmp_path / sub / name
                cfg = experiment_config(synth_dir, out_dir, **overrides)
                code = run_cli("run-irf", "--config", write_config(tmp_path / f"{sub}-{name}.json", cfg),
                               "--deterministic")
                assert code == 0
                for pattern in ("run_irf_*.txt", "trace_*.jsonl"):
                    files.update({(name, p.name): p.read_bytes() for p in out_dir.glob(pattern)})
            outs.append(files)
        assert sorted(outs[0]) == [("avg_w2v", "run_irf_erm_2x2.txt"), ("avg_w2v", "run_irf_rm3_2x2.txt"),
                                   ("avg_w2v", "trace_erm_2x2.jsonl"), ("avg_w2v", "trace_rm3_2x2.jsonl"),
                                   ("plain", "run_irf_rm3_2x2.txt"), ("plain", "trace_rm3_2x2.jsonl"),
                                   ("pvc", "run_irf_erm_2x2.txt"), ("pvc", "run_irf_rm3_2x2.txt"),
                                   ("pvc", "trace_erm_2x2.jsonl"), ("pvc", "trace_rm3_2x2.jsonl")]
        assert outs[0] == outs[1]
        # run-irf has no session pool: more than one thread is refused
        out_dir = tmp_path / "z"
        cfg = experiment_config(synth_dir, out_dir, **variants["pvc"])
        assert run_cli("run-irf", "--config", write_config(tmp_path / "z.json", cfg), "--threads", "2") == 2
        assert not out_dir.exists()


class TestThreadsFlag:
    def test_threads_above_one_rejected_on_every_command(self, tmp_path, capsys):
        commands = (
            ["gen-synth", "--output-dir", str(tmp_path / "synth")],
            ["train-embeddings", "--corpus", "c.jsonl", "--mode", "pvc", "--out", str(tmp_path / "m.emb")],
            ["run-irf", "--config", "cfg.json", "--output-dir", str(tmp_path / "irf")],
            ["run-onerel", "--config", "cfg.json"],
            ["eval", "--run", "a.txt", "--qrels", "q.txt"],
            ["significance", "--run-a", "a.txt", "--run-b", "b.txt", "--qrels", "q.txt"],
        )
        for argv in commands:
            assert run_cli(*argv, "--threads", "2") == 2
            assert "--threads 2: irflab runs single-threaded" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()
        assert not (tmp_path / "irf").exists()

    def test_threads_one_and_deterministic_accepted_everywhere(self, tmp_path):
        out = tmp_path / "synth"
        assert run_cli("gen-synth", "--queries", "2", "--relevant-per-query", "2", "--noise", "5",
                       "--vocab", "24", "--output-dir", str(out), "--threads", "1", "--deterministic") == 0
        assert (out / "corpus.jsonl").exists()


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_exits_2_on_every_command_before_any_work(self, synth_dir, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "cfg.json", experiment_config(synth_dir, tmp_path / "cfg-out"))
        run, qrels = tmp_path / "a.run", str(synth_dir / "qrels.txt")
        run.write_text("q000 Q0 p1 1 1.0 t\n")
        outputs = [tmp_path / name for name in ("synth", "m.emb", "irf", "onerel")]
        commands = (
            ["gen-synth", "--output-dir", str(outputs[0])],
            ["train-embeddings", "--corpus", str(synth_dir / "corpus.jsonl"), "--mode", "pvc",
             "--out", str(outputs[1]), "--dim", "4", "--epochs", "1"],
            ["run-irf", "--config", cfg, "--output-dir", str(outputs[2])],
            ["run-onerel", "--config", cfg, "--output-dir", str(outputs[3])],
            ["eval", "--run", str(run), "--qrels", qrels],
            ["significance", "--run-a", str(run), "--run-b", str(run), "--qrels", qrels],
        )
        for argv in commands:
            with pytest.raises(SystemExit) as exit_:
                run_cli(*argv, "--seed", seed)
            assert exit_.value.code == 2
            captured = capsys.readouterr()
            assert f"argument --seed: expected an integer >= 0, got '{seed}'" in captured.err
            assert "p-value" not in captured.out and "map100" not in captured.out
        assert not any(path.exists() for path in outputs)
        assert not (tmp_path / "cfg-out").exists()

    def test_seed_zero_accepted(self):
        from irflab.cli import build_parser
        assert build_parser().parse_args(["gen-synth", "--seed", "0"]).seed == 0


class TestRunIrfWithEmbeddings:
    def test_erm_and_fusion_pipeline(self, synth_dir, tmp_path):
        model_path = tmp_path / "pvc.emb"
        out_dir = tmp_path / "out"
        cfg = experiment_config(
            synth_dir, out_dir,
            feedback={"methods": ["erm", "rm3"], "m": 5},
            embeddings={"model_path": str(model_path), "representation_mode": "pvc"},
            fusion={"enabled": True, "lambda_sf": 2.0},
        )
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert run_cli("train-embeddings", "--config", cfg_path, "--corpus", str(synth_dir / "corpus.jsonl"),
                       "--mode", "pvc", "--out", str(model_path), "--dim", "8",
                       "--epochs", "1", "--seed", "4") == 0
        assert run_cli("run-irf", "--config", cfg_path) == 0
        assert (out_dir / "run_irf_erm_2x2.txt").exists()
        assert (out_dir / "run_irf_rm3_2x2.txt").exists()


class TestModelTokenizer:
    """train-embeddings records its tokenizer; an experiment that tokenizes
    otherwise refuses the model."""

    def train(self, synth_dir, path, *config):
        assert run_cli("train-embeddings", *config, "--corpus", str(synth_dir / "corpus.jsonl"),
                       "--mode", "pvc", "--out", str(path), "--dim", "4", "--epochs", "1") == 0
        return load_model(path)

    def test_default_config_refuses_a_model_trained_without_config(self, synth_dir, tmp_path, capsys):
        # the default experiment tokenizer stems ("s"); the default embedding one does not
        model_path = tmp_path / "pvc.emb"
        model = self.train(synth_dir, model_path)
        cfg = experiment_config(synth_dir, tmp_path / "out",
                                embeddings={"model_path": str(model_path), "representation_mode": "pvc"},
                                fusion={"enabled": True})
        del cfg["tokenizer"]
        capsys.readouterr()
        assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 2
        assert "was trained with tokenizer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert model.metadata["tokenizer"] == TokenizerConfig.embedding().fingerprint()
        # trained with the experiment's config, the same model loads
        model = self.train(synth_dir, model_path, "--config", str(tmp_path / "cfg.json"))
        assert model.metadata["tokenizer"] == {
            "stemming": "s", "stopwords_sha256": TokenizerConfig().fingerprint()["stopwords_sha256"]}
        assert run_cli("run-irf", "--config", str(tmp_path / "cfg.json")) == 0

    def test_stopwords_are_compared(self, synth_dir, tmp_path):
        model_path = tmp_path / "pvc.emb"
        cfg = experiment_config(synth_dir, tmp_path / "out",
                                embeddings={"model_path": str(model_path), "representation_mode": "pvc"})
        cfg_path = write_config(tmp_path / "cfg.json", dict(cfg, tokenizer={"stopwords": "default", "stemming": "none"}))
        self.train(synth_dir, model_path, "--config", cfg_path)
        with pytest.raises(ConfigError, match="stopwords_sha256"):
            load_engine(cfg)  # stopwords "none", stemming "none"
        assert load_engine(dict(cfg, tokenizer={"stopwords": "default", "stemming": "none"})).ctx.embeddings

    def test_model_without_record_loads_and_says_so(self, synth_dir, tmp_path, caplog):
        model_path = tmp_path / "pvc.emb"
        model = self.train(synth_dir, model_path)
        del model.metadata["tokenizer"]
        save_model(model, model_path)
        cfg = experiment_config(synth_dir, tmp_path / "out",
                                embeddings={"model_path": str(model_path), "representation_mode": "pvc"})
        for loads in (1, 2):
            with caplog.at_level(logging.INFO, logger="irflab.experiments"):
                assert load_engine(cfg).ctx.embeddings is not None
            lines = [r for r in caplog.records if "records no tokenizer" in r.getMessage()]
            assert len(lines) == loads and lines[-1].levelno == logging.INFO


class TestRunOnerel:
    def test_emits_per_method_runs(self, synth_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir,
                                onerel={"draws": 3, "methods": ["ql", "rm3"]})
        code = run_cli("run-onerel", "--config", write_config(tmp_path / "cfg.json", cfg))
        assert code == 0
        run = read_run(out_dir / "run_onerel_rm3.txt")
        assert len(run) == 8 * 3  # (query, draw) topics
        assert (out_dir / "summary_onerel.csv").exists()

    def test_seeded_rerun_identical(self, synth_dir, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out_dir = tmp_path / sub
            cfg = experiment_config(synth_dir, out_dir, onerel={"draws": 2, "methods": ["rocchio"]})
            assert run_cli("run-onerel", "--config", write_config(tmp_path / f"{sub}.json", cfg),
                           "--deterministic") == 0
            outs.append((out_dir / "run_onerel_rocchio.txt").read_bytes())
        assert outs[0] == outs[1]


class TestEvalAndSignificance:
    @pytest.fixture()
    def run_files(self, synth_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = experiment_config(synth_dir, out_dir, session={"settings": [[2, 2], [1, 4]]})
        assert run_cli("run-irf", "--config", write_config(tmp_path / "cfg.json", cfg)) == 0
        return (out_dir / "run_irf_rm3_2x2.txt", out_dir / "run_irf_rm3_1x4.txt",
                synth_dir / "qrels.txt")

    def test_eval_prints_means(self, run_files, capsys):
        run_a, _, qrels = run_files
        assert run_cli("eval", "--run", str(run_a), "--qrels", str(qrels)) == 0
        out = capsys.readouterr().out
        assert "map100:" in out and "ndcg20:" in out

    def test_eval_unknown_metric_exits_2(self, run_files):
        run_a, _, qrels = run_files
        assert run_cli("eval", "--run", str(run_a), "--qrels", str(qrels),
                       "--metrics", "map100,bogus") == 2

    def test_eval_empty_run_fails(self, tmp_path, run_files):
        empty = tmp_path / "empty.run"
        empty.write_text("")
        _, _, qrels = run_files
        assert run_cli("eval", "--run", str(empty), "--qrels", str(qrels)) == 1

    def test_passage_ranked_twice_fails_eval_and_significance(self, tmp_path, capsys):
        # one relevant passage of ten, ranked three times: map100 would read 0.3, not 0.1
        dup, clean, qrels = tmp_path / "dup.run", tmp_path / "clean.run", tmp_path / "qrels.txt"
        qrels.write_text("".join(f"q1 0 p{i} 1\n" for i in range(10)))
        dup.write_text("q1 Q0 p0 1 3.0 t\nq1 Q0 p0 2 2.0 t\nq1 Q0 p0 3 1.0 t\n")
        clean.write_text("q1 Q0 p0 1 3.0 t\nq1 Q0 x1 2 2.0 t\n")
        assert run_cli("eval", "--run", str(clean), "--qrels", str(qrels), "--metrics", "map100") == 0
        assert "map100: 0.1000" in capsys.readouterr().out
        message = f"{dup}: query 'q1' ranks passage 'p0' more than once"
        assert run_cli("eval", "--run", str(dup), "--qrels", str(qrels), "--metrics", "map100") == 1
        captured = capsys.readouterr()
        assert message in captured.err and "map100" not in captured.out
        for run_a, run_b in ((dup, clean), (clean, dup)):
            assert run_cli("significance", "--run-a", str(run_a), "--run-b", str(run_b), "--qrels", str(qrels)) == 1
            captured = capsys.readouterr()
            assert message in captured.err and "p-value" not in captured.out

    def test_significance_same_run_is_one(self, run_files, capsys):
        run_a, _, qrels = run_files
        assert run_cli("significance", "--run-a", str(run_a), "--run-b", str(run_a),
                       "--qrels", str(qrels)) == 0
        assert "p-value: 1.000000" in capsys.readouterr().out

    def test_significance_permutations_below_one_exit_2(self, tmp_path, capsys):
        # 25 topics: above the exhaustive limit, so the sampled path runs
        topics = [f"q{i:02d}" for i in range(25)]
        run_a, run_b, qrels = tmp_path / "a.run", tmp_path / "b.run", tmp_path / "qrels.txt"
        run_a.write_text("".join(f"{q} Q0 p1 1 2.0 a\n{q} Q0 p2 2 1.0 a\n" for q in topics))
        run_b.write_text("".join(f"{q} Q0 p2 1 2.0 b\n{q} Q0 p1 2 1.0 b\n" for q in topics))
        qrels.write_text("".join(f"{q} 0 p{1 + i % 2} 1\n" for i, q in enumerate(topics)))
        args = ("significance", "--run-a", str(run_a), "--run-b", str(run_b), "--qrels", str(qrels))
        for permutations in ("-2", "-1", "0"):
            assert run_cli(*args, "--permutations", permutations) == 2
            captured = capsys.readouterr()
            assert "p-value" not in captured.out
            assert "--permutations must be >= 1" in captured.err
        assert run_cli(*args, "--permutations", "1") == 0
        assert "p-value:" in capsys.readouterr().out

    def test_significance_different_runs(self, run_files, capsys):
        run_a, run_b, qrels = run_files
        assert run_cli("significance", "--run-a", str(run_a), "--run-b", str(run_b),
                       "--qrels", str(qrels)) == 0
        out = capsys.readouterr().out
        assert "p-value:" in out
