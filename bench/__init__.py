"""End-to-end performance ledger for HIRE; see README.md."""
