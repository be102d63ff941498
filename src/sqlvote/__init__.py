"""Text-to-SQL by execution-consistency voting over mixed prompt designs and models."""
