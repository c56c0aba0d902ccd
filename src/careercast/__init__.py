"""Two-stage career-trend forecasting for player season data.

Stage 1 compresses each career into an embedding and clusters the
embeddings into career types; stage 2 feeds the career sequence and its
cluster into an LSTM forecaster that predicts the three seasons after
age 28. Baselines, metrics, a synthetic-data generator and a CLI round
out the pipeline.
"""

__version__ = "0.1.0"
