"""Day-ahead load forecasting and price-driven load shifting toolkit."""

__version__ = "0.1.0"
