"""Exact-arithmetic toolkit for finite-dimensional BiHom-Lie algebras."""
