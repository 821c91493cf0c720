"""Tests for the persistent, single-writer revocation service (repro.revocation)."""
