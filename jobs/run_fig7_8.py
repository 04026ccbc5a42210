"""Figs 7-8 (as tables) — end-to-end comparison with proportional quotas."""
from run_fig5_6 import main

if __name__ == "__main__":
    main(quota_mode="proportional")
