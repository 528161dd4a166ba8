"""Workload and corpus generators for the benchmarks and examples.

The paper evaluates on the Andrew benchmark (Table 1/2) and on a 17 000-file
/ 150 MB text database indexed by Glimpse (Table 3/4).  Neither artefact is
available, so this package generates deterministic synthetic equivalents:

* :mod:`repro.workloads.corpus` — seeded text corpus with a Zipf-flavoured
  vocabulary and *topic injection*: marker words placed into a controlled
  fraction of files, so Table 4's few/intermediate/many query selectivities
  are dialled in exactly;
* :mod:`repro.workloads.andrew` — the five-phase Andrew benchmark
  (Makedir / Copy / Scan / Read / Make) over any of our file-system layers;
* :mod:`repro.workloads.mailgen` — synthetic mail messages for the paper's
  running "fingerprint project" example;
* :mod:`repro.workloads.coderepo` / :mod:`repro.workloads.digilib` — the
  source-tree churn and digital-library ingest workloads.
"""

from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

__all__ = [
    "AndrewBenchmark",
    "AndrewConfig",
    "CorpusConfig",
    "CorpusGenerator",
]
