"""lexcore: vocabulary-core dynamics from yearly 1-gram counts.

Shards are ingested into a store; year windows give frequency-ranked or
book-share cores, and metrics give turnover, coverage, overlap,
correlation and POS structure; a synthetic corpus plants ground truth.
The package re-exports nothing and importing it loads no layer. Each
public name lives in one module: alphabets, cli, config, errors, ingest,
metrics, postags, serialize, store, svgchart, synth or windows."""

__version__ = "0.1.0"
