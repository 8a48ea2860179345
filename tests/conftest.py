from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
