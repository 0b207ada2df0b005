"""The package root exports exactly the documented API."""
import asap

ROOT_API = {
    "AcfProfile", "SearchState", "Series", "SmoothResult", "StreamState",
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
