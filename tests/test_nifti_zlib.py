"""The .nii.gz tests of test_nifti.py again, with the zlib engine forced.

test_nifti.py runs them with libdeflate whenever the system library is
installed. Here the module's library handle is None, as on a machine
without it, so both engines must give the same bytes, the same errors and
the same memory bounds.
"""

import pytest

from mridecomp import nifti

from test_nifti import (  # noqa: F401  (collected again under the fixture below)
    test_corrupt_bytes_raise_only_pipeline_errors,
    test_corrupt_gzip_raises_io_error,
    test_empty_leading_member_before_zero_padding_decodes,
    test_forged_isize_is_an_io_error,
    test_forged_isize_reserves_no_more_than_deflate_allows,
    test_gzip_detected_by_magic_not_extension,
    test_gzip_member_layouts_decode_like_gzip_decompress,
    test_single_member_inflates_into_one_exact_buffer,
    test_trailing_non_gzip_bytes_raise_io_error,
)


@pytest.fixture(autouse=True, scope="module")
def zlib_engine():
    # module scope, so the hypothesis test sees it without a per-example fixture
    saved = nifti._LIBDEFLATE
    nifti._LIBDEFLATE = None
    try:
        yield
    finally:
        nifti._LIBDEFLATE = saved
