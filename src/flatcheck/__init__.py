"""flatcheck: jet groupoid arithmetic and flatness checks for parallelisms."""

__version__ = "0.1.0"

# the largest dimension of a chart or a jet document; it lives here, above
# both readers, so reading a jet does not load the chart code
MAX_DIM = 6
