"""Covariance change-point detection via Fisher matrix spectral statistics.

The library entry points live in their modules: ``core`` (``DetectionConfig``,
``validate_config``), ``simgen`` (``generate``), ``screening`` (``screen``) and
``detect`` (``localize``, ``scan``); ``cli`` runs them as commands.
"""
