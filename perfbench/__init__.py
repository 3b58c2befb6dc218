"""Layer-attributed end-to-end benchmark for the Tapeworm II reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the checkout's ``src/`` tree and
prints its metrics; see ``perfbench/README.md`` for what each workload
and metric means and ``perfbench/spec.json`` for the recorded digests,
seeds and the layer-to-end-to-end prediction table.
"""
