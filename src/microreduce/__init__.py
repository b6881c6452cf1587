"""microreduce: a deterministic local simulation of a serverless
micro-batch MapReduce pipeline (ingest -> map -> counter gate -> reduce)
over emulated object storage, key-value storage, and queuing."""

__version__ = "0.1.0"
__all__ = ["__version__"]
