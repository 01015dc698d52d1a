import tempfile
from pathlib import Path

from hypothesis import configuration

# While pytest collects, Hypothesis caches constants scraped from local
# sources under its home directory (./.hypothesis by default), even with
# database=None. Keep that cache out of the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gridledger-hypothesis")
