"""Allow `python -m wattmodel`."""

from .cli import main

raise SystemExit(main())
