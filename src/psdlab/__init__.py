"""Desk-scale laboratory for progressive self-distillation in cross-modal
contrastive learning. Import what you need from its modules:

- cli: the ``psdlab`` command: generate, train, eval, gradcheck, ablate;
- config: the plain-text experiment configuration;
- data: synthetic noisy image-text pairs and their dataset files;
- errors: the typed errors with their exit codes, and binary file framing;
- evaluation: retrieval, zero-shot, linear probe and similarity statistics;
- experiments: the paired-seed ablation matrix and its table;
- gradcheck: finite-difference checks of every analytic gradient;
- model: MLP encoders with unit-norm outputs and their backward pass;
- numkit: dense numeric kernels and the seeded random stream;
- objective: InfoNCE, the PSD loss and the soft alignment targets;
- trainer: the training loop, schedules, AdamW and batch partitions.
"""
