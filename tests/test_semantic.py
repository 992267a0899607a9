import numpy as np
import pytest

from references import build_graph, vocab_overlap
from restore.semantic import (
    AnalogyQuad,
    SimilarityPair,
    analogy_distance,
    dataset_vocab,
    default_label_mapper,
    euclidean_distance,
    load_analogy_dataset,
    load_similarity_dataset,
    similarity_mean_distance,
)


class TestLoaders:
    def test_similarity_tsv(self, tmp_path):
        f = tmp_path / "sim.tsv"
        f.write_text("# header\ncar\tauto\t8.9\ncoast\tshore\t7.1\n")
        pairs, diags = load_similarity_dataset(f)
        assert len(pairs) == 2 and not diags
        assert pairs[0] == SimilarityPair("car", "auto", 8.9)

    def test_similarity_csv_flag(self, tmp_path):
        f = tmp_path / "sim.csv"
        f.write_text("car,auto,8.9\n")
        pairs, _ = load_similarity_dataset(f, fmt="csv")
        assert pairs[0].word_b == "auto"

    def test_malformed_line_reported(self, tmp_path):
        lines = [f"w{i}\tv{i}\t{i}.0" for i in range(9)]
        lines.insert(4, "broken line without tabs")
        f = tmp_path / "sim.tsv"
        f.write_text("\n".join(lines) + "\n")
        pairs, diags = load_similarity_dataset(f)
        assert len(pairs) == 9
        assert len(diags) == 1 and "line 5" in diags[0]

    def test_no_valid_rows_errors(self, tmp_path):
        f = tmp_path / "sim.tsv"
        f.write_text("# only a header\n")
        with pytest.raises(ValueError, match="no valid"):
            load_similarity_dataset(f)

    def test_analogy_quads_and_sections(self, tmp_path):
        f = tmp_path / "an.txt"
        f.write_text(": gram1\nplay played make made\nbig bigger small smaller\n")
        quads, diags = load_analogy_dataset(f)
        assert not diags
        assert quads[0] == AnalogyQuad("play", "played", "make", "made")

    def test_vocab_counts_lowercased(self, tmp_path):
        f = tmp_path / "sim.tsv"
        f.write_text("Car\tauto\t1\ncar\tTruck\t2\n")
        pairs, _ = load_similarity_dataset(f)
        assert dataset_vocab(pairs) == {"car", "auto", "truck"}
        g = tmp_path / "an.txt"
        g.write_text("Play played make Made\n")
        quads, _ = load_analogy_dataset(g)
        assert dataset_vocab(quads) == {"play", "played", "make", "made"}


class TestVocabOverlap:
    def test_all_present(self):
        g = build_graph([("/c/en/cat", "/c/en/dog")])
        res = vocab_overlap({"cat", "dog"}, g)
        assert res == {"overlap_count": 2, "percentage": 100.0}

    def test_none_present(self):
        g = build_graph([("/c/en/cat", "/c/en/dog")])
        res = vocab_overlap({"plane", "train"}, g)
        assert res["overlap_count"] == 0
        assert res["percentage"] == 0.0

    def test_custom_mapper(self):
        g = build_graph([("CAT", "DOG")])
        res = vocab_overlap({"cat"}, g, label_mapper=str.upper)
        assert res["overlap_count"] == 1


class TestEuclidean:
    def test_identical_zero(self):
        assert euclidean_distance(np.ones(4), np.ones(4)) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        total = 0.0
        for x, y in zip(a, b):
            total += (y - x) ** 2
        assert abs(euclidean_distance(a, b) - total ** 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            euclidean_distance(np.zeros(2), np.zeros(3))

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y, z = rng.standard_normal((3, 8))
            dxy = euclidean_distance(x, y)
            assert dxy >= 0.0
            assert dxy == euclidean_distance(y, x)
            assert euclidean_distance(x, x) == 0.0
            assert dxy <= euclidean_distance(x, z) + euclidean_distance(z, y) + 1e-12


class TestSimilarityReport:
    def lookup(self):
        return {
            "/c/en/car": np.array([0.0, 0.0]),
            "/c/en/auto": np.array([1.0, 0.0]),
            "/c/en/coast": np.array([0.0, 0.0]),
            "/c/en/shore": np.array([3.0, 0.0]),
        }

    def test_mean_of_two(self):
        pairs = [SimilarityPair("car", "auto", 1.0), SimilarityPair("coast", "shore", 2.0)]
        rep = similarity_mean_distance(pairs, self.lookup(), dataset_name="toy")
        assert rep.mean_distance == 2.0
        assert rep.pairs_evaluated == 2 and rep.pairs_skipped == 0

    def test_unresolvable_counted_not_imputed(self):
        pairs = [SimilarityPair("car", "auto", 1.0), SimilarityPair("car", "moon", 2.0)]
        rep = similarity_mean_distance(pairs, self.lookup())
        assert rep.pairs_evaluated == 1 and rep.pairs_skipped == 1
        assert rep.pairs_evaluated + rep.pairs_skipped == len(pairs)

    def test_all_unresolvable_errors(self):
        pairs = [SimilarityPair("moon", "sun", 1.0)]
        with pytest.raises(ValueError, match="no resolvable"):
            similarity_mean_distance(pairs, self.lookup(), dataset_name="gap")

    def test_permutation_invariant(self):
        pairs = [SimilarityPair("car", "auto", 1.0), SimilarityPair("coast", "shore", 2.0)]
        a = similarity_mean_distance(pairs, self.lookup()).mean_distance
        b = similarity_mean_distance(pairs[::-1], self.lookup()).mean_distance
        assert a == b

    def test_homogeneity(self):
        pairs = [SimilarityPair("car", "auto", 1.0), SimilarityPair("coast", "shore", 2.0)]
        base = similarity_mean_distance(pairs, self.lookup()).mean_distance
        scaled_lookup = {k: 2.0 * v for k, v in self.lookup().items()}
        scaled = similarity_mean_distance(pairs, scaled_lookup).mean_distance
        assert abs(scaled - 2.0 * base) < 1e-12


class TestAnalogyReport:
    def test_offset_exact_relation(self):
        vectors = {
            "/c/en/a": np.array([0.0, 0.0]),
            "/c/en/b": np.array([1.0, 0.0]),
            "/c/en/c": np.array([0.0, 1.0]),
            "/c/en/d": np.array([1.0, 1.0]),
        }
        rep = analogy_distance([AnalogyQuad("a", "b", "c", "d")], vectors, mode="offset")
        assert rep.mean_distance == 0.0
        assert rep.mode == "offset"

    def test_self_quad_cancels(self):
        vectors = {"/c/en/a": np.array([2.0, 5.0]), "/c/en/b": np.array([-1.0, 3.0])}
        rep = analogy_distance([AnalogyQuad("a", "b", "a", "b")], vectors, mode="offset")
        assert rep.mean_distance == 0.0

    def test_hand_computed_offsets(self):
        # distances engineered to be exactly 1, 2, 3
        vectors = {}
        quads = []
        for idx, gap in enumerate((1.0, 2.0, 3.0)):
            base = f"q{idx}"
            vectors[f"/c/en/{base}a"] = np.array([0.0, 0.0])
            vectors[f"/c/en/{base}b"] = np.array([1.0, 0.0])
            vectors[f"/c/en/{base}c"] = np.array([0.0, 1.0])
            vectors[f"/c/en/{base}d"] = np.array([1.0, 1.0 + gap])
            quads.append(AnalogyQuad(f"{base}a", f"{base}b", f"{base}c", f"{base}d"))
        rep = analogy_distance(quads, vectors, mode="offset")
        assert rep.mean_distance == 2.0

    def test_pairwise_mode(self):
        vectors = {
            "/c/en/a": np.array([0.0]),
            "/c/en/b": np.array([1.0]),
            "/c/en/c": np.array([0.0]),
            "/c/en/d": np.array([3.0]),
        }
        quads = [AnalogyQuad("a", "b", "c", "d"), AnalogyQuad("c", "d", "a", "b")]
        rep = analogy_distance(quads, vectors, mode="pairwise")
        assert rep.mean_distance == 2.0  # mean of |a-b|=1 and |c-d|=3
        assert rep.pairs_evaluated == 2  # quads, not their four distances

    def test_partial_quad_skipped(self):
        vectors = {
            "/c/en/a": np.array([0.0]),
            "/c/en/b": np.array([1.0]),
            "/c/en/c": np.array([0.0]),
        }
        with pytest.raises(ValueError, match="no resolvable"):
            analogy_distance([AnalogyQuad("a", "b", "c", "missing")], vectors)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            analogy_distance([], {}, mode="nearest")


@pytest.mark.parametrize("mode", [None, "pairwise", "offset"])
def test_record_of_mixed_dimensions_skipped(mode):
    """A record whose words resolve to vectors of two lengths is skipped and
    counted, like one with a missing word; mode None scores similarity pairs.
    With nothing left to score, the error counts the two causes apart."""
    vectors = {
        "/c/en/a": np.array([0.0, 0.0]),
        "/c/en/b": np.array([3.0, 4.0]),
        "/c/en/long": np.array([1.0, 0.0, 0.0]),
    }
    if mode is None:
        records = [SimilarityPair("a", "b", 1.0), SimilarityPair("a", "long", 1.0)]
        ghost = SimilarityPair("a", "ghost", 1.0)
        score = lambda recs: similarity_mean_distance(recs, vectors)
    else:
        records = [AnalogyQuad("a", "b", "a", "b"), AnalogyQuad("a", "b", "a", "long")]
        ghost = AnalogyQuad("a", "b", "a", "ghost")
        score = lambda recs: analogy_distance(recs, vectors, mode=mode)
    rep = score(records)
    assert rep.pairs_evaluated == 1 and rep.pairs_skipped == 1
    assert rep.mean_distance == (0.0 if mode == "offset" else 5.0)
    noun = "pair" if mode is None else "quad"
    missing = f"{noun}s missing from the embedding vocabulary"
    for recs, why in [(records[1:], f"0 of 1 {missing}, 1 with vectors of mixed lengths"),
                      ([records[1], ghost], f"1 of 2 {missing}, 1 with vectors of mixed lengths"),
                      ([ghost], f"1 of 1 {missing}")]:
        with pytest.raises(ValueError, match=f"^no resolvable {noun}s for dataset <unnamed>: {why}$"):
            score(recs)


def test_default_mapper():
    assert default_label_mapper("Smartphone") == "/c/en/smartphone"
    assert default_label_mapper("mobile phone") == "/c/en/mobile_phone"
