"""The package root exports exactly the documented API."""
import asap
import asap.acf

ROOT_API = {
    "SearchState", "Series", "SmoothResult", "StreamState",
    "autocorrelation", "binary_only_search", "estimate_roughness", "exhaustive_search",
    "find_peaks", "find_window", "grid_search", "kurtosis", "point_to_pixel_ratio",
    "preaggregate", "roughness", "sma", "smooth_series", "window_cap", "zscore",
}


def test_root_exports_exactly_the_documented_names():
    assert sorted(asap.__all__) == sorted(ROOT_API)
    for name in asap.__all__:
        getattr(asap, name)  # AttributeError if listed but not bound
    # The search's steps and the metrics' helpers live in their modules only.
    for name in ("binary_search", "search_periodic", "is_rougher_estimate",
                 "update_lower_bound", "first_differences", "population_std"):
        assert not hasattr(asap, name)
    # find_window takes no profile, so the profile type is find_peaks's alone.
    assert not hasattr(asap, "AcfProfile")
    assert asap.acf.AcfProfile is type(asap.find_peaks([1.0, 0.5, 0.7, 0.2]))
