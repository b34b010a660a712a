import pytest
from hypothesis import given
from hypothesis import strategies as st

from friendly_trees.circles import NestingForest, dual_tree, parse_nesting
from friendly_trees.tree import Tree, canonical_code


@st.composite
def forests(draw, max_circles: int = 10):
    k = draw(st.integers(0, max_circles))
    parents = []
    for i in range(k):
        choice = draw(st.integers(-1, i - 1))
        parents.append(None if choice < 0 else choice)
    return NestingForest(tuple(parents))


class TestNestingForest:
    def test_rejects_dangling_parent(self):
        with pytest.raises(ValueError, match="dangling"):
            NestingForest((None, 5))

    def test_rejects_self_containment(self):
        with pytest.raises(ValueError, match="contains itself"):
            NestingForest((0,))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            NestingForest((1, 0))


class TestDualTree:
    def test_empty_system(self):
        t = dual_tree(NestingForest(()))
        assert t.vertex_count == 1
        assert t.edge_count == 0

    def test_three_siblings_make_a_star(self):
        t = dual_tree(NestingForest((None, None, None)))
        assert canonical_code(t) == canonical_code(Tree(4, [(0, 1), (0, 2), (0, 3)]))
        # the outer region borders every disk
        assert t.degrees[0] == 3

    def test_three_nested_make_a_path(self):
        t = dual_tree(NestingForest((None, 0, 1)))
        assert canonical_code(t) == canonical_code(Tree(4, [(0, 1), (1, 2), (2, 3)]))
        assert t.degrees[0] == 1

    def test_edge_per_circle(self):
        f = NestingForest((None, 0, 0, None, 3))
        assert dual_tree(f).edge_count == f.circle_count

    @given(forests())
    def test_round_trip_recovers_containment(self, f):
        t = dual_tree(f)
        assert t.edge_count == f.circle_count
        # re-derive each circle's parent from region adjacency, rooted at the
        # outer vertex, and compare with the input forest
        parent_vertex = {0: None}
        queue = [0]
        for x in queue:
            for y, _ in t.adjacency[x]:
                if y not in parent_vertex:
                    parent_vertex[y] = x
                    queue.append(y)
        recovered = tuple(
            None if parent_vertex[i + 1] == 0 else parent_vertex[i + 1] - 1
            for i in range(f.circle_count)
        )
        assert recovered == f.parents


class TestParseNesting:
    def test_basic(self):
        f = parse_nesting("C 0 -\nC 1 0\nC 2 0\n")
        assert f.parents == (None, 0, 0)

    def test_empty_file(self):
        assert parse_nesting("").circle_count == 0

    def test_out_of_order_ids(self):
        f = parse_nesting("C 2 1\nC 0 -\nC 1 0\n")
        assert f.parents == (None, 0, 1)

    def test_rejects_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_nesting("C 0 -\nC 0 -\n")

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError, match="not dense"):
            parse_nesting("C 0 -\nC 2 -\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_nesting("circle 0 -\n")

    def test_rejects_bad_parent(self):
        with pytest.raises(ValueError, match="bad parent"):
            parse_nesting("C 0 x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("C 0 -\nC 1\n", "line 2: unrecognized"),
            ("\nC x -\n", "line 2: bad circle id 'x'"),
            ("C 0 -\n\nC 1 0\nC 0 1\n", "line 4: duplicate circle id 0"),
            ("C 0 -\nC 1 y\n", "line 2: bad parent id 'y'"),
            ("C 0 -\nC 1 7\n", "line 2: circle 1: dangling parent id 7"),
            ("C 1 -\n\nC 0 0\n", "line 3: circle 0 contains itself"),
            ("C 0 1\nC 2 -\nC 1 0\n", "line 1: containment cycle through circle 0"),
        ],
    )
    def test_rejection_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_nesting(text)
