"""Cost models for CNN inference and budget-aware hyper-parameter search.

Modules:
  netgraph   - typed layer chains, shape inference, FLOP/MAC/access counting
  analytic   - closed-form runtime (read/compute/write) and energy accounting
  polyreg    - learned sparse-polynomial runtime/power models per layer kind
  linmod     - linear a-priori power/memory constraint models
  bayesopt   - GP surrogate search with budget-gated expected improvement
  cholstack  - Cholesky factors of the GP's hyper-parameter trials, grown a row at a time
  objectives - objectives for the search: quadratic, Branin, an external command
  synth      - synthetic profiling CSVs from a known ground truth
  reference  - published Paleo/NeuralPower reference numbers for compare-reference
  seeding    - counter-based (Philox) generators and k-fold splits from one seed
  cli        - command-line surface tying everything together
"""

__version__ = "0.1.0"
