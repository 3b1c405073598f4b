"""Helpers shared by the test modules."""

import re

import pytest

from qdemod import _tracker


def dump_design_by_rows(design, path):
    """The byte oracle for dump_design: one f-string per row on numpy scalars."""
    g = design.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# loop design dump\n")
        fh.write(f"# n_samples = {g.n_samples}, bandwidth = {g.bandwidth!r}, "
                 f"delay = {design.delay}, two_alpha = {design.two_alpha!r}\n")
        fh.write("# bin freq G_re G_im Lp_re Lp_im L_re L_im Lpp_re Lpp_im\n")
        f = g.freqs
        rows = zip(design.g.response, design.l_prime.response,
                   design.l_loop.response, design.l_post.response)
        for k, (gr, lp, ll, lq) in enumerate(rows):
            fh.write(f"{k} {f[k]:.9e} {gr.real:.17e} {gr.imag:.17e} "
                     f"{lp.real:.17e} {lp.imag:.17e} {ll.real:.17e} {ll.imag:.17e} "
                     f"{lq.real:.17e} {lq.imag:.17e}\n")


@pytest.fixture
def design_dump_oracle():
    """dump_design_by_rows, for modules that compare design.txt bytes."""
    return dump_design_by_rows


@pytest.fixture
def kernel_clones():
    """The names a loaded kernel may give for its clone of track_block:
    _tracker.c's ISA_CLONE, when its source names one, and the baseline."""
    isa = re.findall(r'^#define ISA_CLONE "([^"]*)"$', _tracker.SOURCE.read_text(), re.M)
    return (*isa, "default")
