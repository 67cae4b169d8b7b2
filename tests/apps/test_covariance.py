"""Covariance / PCA application tests."""

import numpy as np
import pytest

from repro.apps.covariance import (
    assemble_covariance,
    center_rows,
    covariance_reference,
    covariance_via_pairwise,
    pca_from_covariance,
    row_inner_product,
)
from repro.core.block import BlockScheme
from repro.core.pairwise import pairwise_results
from repro.workloads import make_matrix


class TestCentering:
    def test_rows_have_zero_mean(self):
        rows = center_rows(make_matrix(5, 20, seed=0))
        for row in rows:
            assert row.mean() == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            center_rows(np.zeros(5))

    def test_each_row_loses_its_own_mean_not_the_column_means(self):
        """Rows are the variables (np.cov's convention), so axis=1 is centered.

        On a matrix whose row means and column means differ, removing column
        means instead would leave the rows off-centre and miss np.cov.
        """
        A = np.arange(12.0).reshape(3, 4) ** 2 + np.array([[0.0], [50.0], [-7.0]])
        assert not np.allclose(A.mean(axis=0), A.mean(axis=1, keepdims=True))
        assert np.allclose(np.array(center_rows(A)), A - A.mean(axis=1, keepdims=True))
        assert not np.allclose(np.array(center_rows(A)), A - A.mean(axis=0))
        for kernel in ("auto", None):
            cov = covariance_via_pairwise(A, BlockScheme(3, 2), kernel=kernel)
            assert np.allclose(cov, np.cov(A))


class TestAssembly:
    def test_matches_numpy_cov(self):
        A = make_matrix(8, 30, seed=1)
        rows = center_rows(A)
        products = pairwise_results(rows, row_inner_product, BlockScheme(8, 3))
        cov = assemble_covariance(products, rows)
        assert np.allclose(cov, covariance_reference(A))

    def test_symmetric_output(self):
        A = make_matrix(6, 25, seed=2)
        rows = center_rows(A)
        products = pairwise_results(rows, row_inner_product, BlockScheme(6, 2))
        cov = assemble_covariance(products, rows)
        assert np.allclose(cov, cov.T)

    def test_bad_pair_key_rejected(self):
        rows = center_rows(make_matrix(3, 10, seed=0))
        with pytest.raises(ValueError):
            assemble_covariance({(5, 1): 1.0}, rows)

    @pytest.mark.parametrize("key", [(4, 1), (1, 2), (2, 2), (2, 0)])
    def test_range_check_names_the_key_among_good_ones(self, key):
        rows = center_rows(make_matrix(3, 10, seed=0))
        with pytest.raises(ValueError, match=rf"\({key[0]}, {key[1]}\) out of range for v=3"):
            assemble_covariance({(3, 1): 1.0, key: 1.0, (3, 2): 1.0}, rows)

    def test_via_pairwise_equals_dict_assembly(self):
        """The dense-view assembly and the pair-map assembly are one matrix."""
        A = make_matrix(9, 12, seed=3)
        rows = center_rows(A)
        products = pairwise_results(rows, row_inner_product, BlockScheme(9, 3))
        via_dict = assemble_covariance(products, rows)
        via_dense = covariance_via_pairwise(A, BlockScheme(9, 3), kernel=None)
        assert np.array_equal(via_dict, via_dense)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            assemble_covariance({}, [np.array([1.0])])

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            assemble_covariance({}, [])


class TestPCA:
    def test_low_rank_signal_detected(self):
        """A rank-3 matrix's covariance has exactly 3 significant eigenvalues."""
        A = make_matrix(10, 40, rank=3, seed=3)
        cov = covariance_reference(A)
        result = pca_from_covariance(cov)
        significant = (result.eigenvalues > 1e-8).sum()
        assert significant == 3

    def test_eigenvalues_descending(self):
        cov = covariance_reference(make_matrix(7, 30, seed=4))
        values = pca_from_covariance(cov).eigenvalues
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_components_orthonormal(self):
        cov = covariance_reference(make_matrix(6, 30, seed=5))
        components = pca_from_covariance(cov).components
        gram = components @ components.T
        assert np.allclose(gram, np.eye(len(components)), atol=1e-10)

    def test_k_truncation(self):
        cov = covariance_reference(make_matrix(6, 30, seed=5))
        result = pca_from_covariance(cov, k=2)
        assert result.eigenvalues.shape == (2,)
        assert result.components.shape == (2, 6)

    def test_explained_variance_ratio_sums_to_one(self):
        cov = covariance_reference(make_matrix(6, 30, seed=6))
        ratio = pca_from_covariance(cov).explained_variance_ratio
        assert ratio.sum() == pytest.approx(1.0)

    def test_sign_convention_deterministic(self):
        cov = covariance_reference(make_matrix(6, 30, seed=7))
        a = pca_from_covariance(cov).components
        b = pca_from_covariance(cov).components
        assert np.array_equal(a, b)
        for row in a:
            assert row[np.argmax(np.abs(row))] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pca_from_covariance(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pca_from_covariance(np.eye(3), k=0)
        with pytest.raises(ValueError):
            pca_from_covariance(np.eye(3), k=4)

    def test_reconstruction_against_numpy_eig(self):
        A = make_matrix(9, 50, seed=8)
        cov = covariance_reference(A)
        ours = pca_from_covariance(cov).eigenvalues
        numpy_values = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.allclose(ours, numpy_values)
