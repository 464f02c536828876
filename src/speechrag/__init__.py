"""Cross-modal speech retrieval and RAG evaluation toolkit."""

__version__ = "0.1.0"
