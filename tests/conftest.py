"""Test-session setup.

BLAS libraries read their thread count once, when numpy is first imported,
so it is pinned here, before any test module imports numpy.  The models
under test are small and Python-bound: extra BLAS threads only contend for
cores (a global-norm clip over a few hundred thousand gradient entries ran
hundreds of times slower with a second busy process), and the thread count
can change floating-point summation order.  Values set in the environment
win over these defaults.

The criterion-3 and criterion-4 models that several modules decode are
trained once per session here.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def dep_trained():
    """The criterion-3 corpus and configuration, trained for three epochs."""
    from ptrparse import dep
    from ptrparse.corpus import gen_synthetic_dep

    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)
    config = dep.DepConfig(variant="pst", fusion="sgate", encoder_hidden=64, decoder_hidden=64,
                           arc_mlp=64, label_mlp=16, batch_size=8, epochs=3, seed=7)
    model, _ = dep.train_dep(items, config)
    return model, items


@pytest.fixture(scope="session")
def rst_trained():
    """The criterion-4 corpus and configuration, trained for three epochs."""
    from ptrparse import rst
    from ptrparse.corpus import gen_synthetic_rst, segmented_from_texts

    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(7, 64, max_edus=8, label_count=8)]
    config = rst.RstConfig(word_dim=64, encoder_hidden=64, encoder_layers=2, decoder_layers=2,
                           rel_mlp=64, fusion="plain", embed_dropout=0.0, encoder_dropout=0.0,
                           decoder_dropout=0.0, classifier_dropout=0.0, l2=0.0, batch_size=8,
                           epochs=3, seed=7)
    return rst.train_rst(items, config).model, items
