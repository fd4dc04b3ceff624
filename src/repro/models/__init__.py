"""Model zoo: CV, NLP and ASR workloads evaluated by the paper."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    scaling=("square_cube_family", "synthetic_transformer"),
    specs=("Domain", "ModelSpec"),
    zoo=("ASR_KEYS", "CV_KEYS", "MODELS", "NLP_KEYS", "get_model", "models_in_domain"),
)
