"""Corpus differential harness: external nets through every engine."""
