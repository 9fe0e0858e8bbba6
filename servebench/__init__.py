"""Serving benchmark for the KB-TIM indexes; see README.md."""
