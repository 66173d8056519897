/**
 * @file
 * OpenOffice Impress model.
 *
 * "Presentation preparation requires additional libraries like
 * graphic filters that require more I/O time" (Section 6). Impress
 * is the most I/O-heavy desktop application of Table 1. One
 * execution:
 *
 *   - the OpenOffice startup plus template and clip-art gallery
 *     loads;
 *   - slide-work phases: the user arranges a slide (a long think),
 *     then inserts an image (a large read through a graphic filter)
 *     or saves the deck. Image inserts sometimes regenerate
 *     thumbnails after a sub-breakeven pause — the aliasing hazard
 *     for this workload;
 *   - the same office helper process as writer (recent docs,
 *     autobackups).
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

constexpr Address kBase = 0x08200000;
constexpr Address kPcLoadLib = kBase + 0x010;
constexpr Address kPcConfig = kBase + 0x020;
constexpr Address kPcTemplate = kBase + 0x030;
constexpr Address kPcGallery = kBase + 0x040;
constexpr Address kPcOpenDeck = kBase + 0x050;
constexpr Address kPcImageRead = kBase + 0x060;
constexpr Address kPcThumbWrite = kBase + 0x070;
constexpr Address kPcSaveDeck = kBase + 0x080;
constexpr Address kPcRecent = kBase + 0x090;
constexpr Address kPcBackup = kBase + 0x0a0;

constexpr FileId kLibBase = 4000;
constexpr FileId kConfigBase = 4100;
constexpr FileId kTemplateFile = 4200;
constexpr FileId kGalleryFile = 4201;
constexpr FileId kDeckFile = 4300;
constexpr FileId kImageBase = 4400;
constexpr FileId kThumbFile = 4500;
constexpr FileId kRecentFile = 4600;
constexpr FileId kBackupFile = 4601;

constexpr int kLibCount = 48;
constexpr Pid kMainPid = 300;
constexpr Pid kHelperPid = 301;

class ImpressModel : public AppModel
{
  public:
    ImpressModel()
        : info_{"impress", 19,
                "presentation editor; large image inserts, deck "
                "saves, thumbnail aliasing"}
    {
    }

    const AppInfo &info() const override { return info_; }

    trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage) const override
    {
        trace::TraceBuilder builder(info_.name, execution, kMainPid,
                                    std::move(storage));
        Actor main(builder, rng.fork(1), kMainPid, millisUs(50));
        main.setIntraGap(millisUs(6));

        // --- Startup: OpenOffice core plus presentation extras.
        for (int lib = 0; lib < kLibCount; ++lib) {
            const std::uint32_t bytes =
                (100 + (lib * 61) % 220) * 1024;
            main.readFile(kPcLoadLib, 4, kLibBase + lib, 0, bytes,
                          4096);
        }
        for (int cfg = 0; cfg < 10; ++cfg) {
            main.readFile(kPcConfig, 5, kConfigBase + cfg, 0,
                          8 * 1024, 4096);
        }
        main.readFile(kPcTemplate, 6, kTemplateFile, 0, 300 * 1024,
                      4096);
        main.readFile(kPcGallery, 6, kGalleryFile, 0, 500 * 1024,
                      4096);

        main.fork(kHelperPid);
        Actor helper(builder, rng.fork(2), kHelperPid, main.now());
        helper.setIntraGap(millisUs(8));

        main.open(kPcOpenDeck, 3, kDeckFile);
        main.readFile(kPcOpenDeck, 3, kDeckFile, 0, 400 * 1024,
                      4096);
        helper.advanceTo(main.now() + millisUs(300));
        helper.writeFile(kPcRecent, 4, kRecentFile, 0, 4 * 1024,
                         4096);

        // --- Slide work.
        const int phases =
            static_cast<int>(main.rng().uniformInt(5, 8));
        for (int phase = 0; phase < phases; ++phase) {
            main.think(24.0, 1.5, 7.0, 900.0);

            if (main.rng().chance(0.55)) {
                insertImage(main);
            } else {
                saveDeck(main, helper);
            }
        }

        // Final save before leaving.
        main.think(10.0, 1.1, 7.0, 240.0);
        saveDeck(main, helper);

        const TimeUs last =
            main.now() > helper.now() ? main.now() : helper.now();
        return builder.finish(last + millisUs(600));
    }

  private:
    /** Insert an image through a graphic filter; sometimes the
     * thumbnail pane regenerates after a sub-breakeven pause. */
    static void
    insertImage(Actor &main)
    {
        const int image = static_cast<int>(
            main.rng().uniformInt(0, 5));
        const std::uint32_t bytes = (600 + image * 250) * 1024;
        main.open(kPcImageRead, 8, kImageBase + image);
        main.readFile(kPcImageRead, 8, kImageBase + image, 0, bytes,
                      4096);
        if (main.rng().chance(0.25)) {
            main.pauseBetween(millisUs(2200), millisUs(4300));
            main.writeFile(kPcThumbWrite, 9, kThumbFile, 0,
                           60 * 1024, 4096);
        }
    }

    /** Save the deck; the helper mirrors a backup on most saves. */
    static void
    saveDeck(Actor &main, Actor &helper)
    {
        main.writeFile(kPcSaveDeck, 3, kDeckFile, 0, 400 * 1024,
                       4096);
        if (helper.rng().chance(0.7) && main.now() > helper.now()) {
            helper.advanceTo(main.now() + millisUs(300));
            helper.writeFile(kPcBackup, 4, kBackupFile, 0, 48 * 1024,
                             4096);
        }
    }

    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeImpress()
{
    return std::make_unique<ImpressModel>();
}

} // namespace pcap::workload
