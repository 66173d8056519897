/**
 * @file
 * OpenOffice Writer model.
 *
 * The paper's user "mostly composes the text and also does some
 * quick fixes after proofreading"; word processing "requires
 * additional libraries like dictionaries" (Section 6). One execution:
 *
 *   - a heavy OpenOffice startup (many shared libraries, config
 *     files, font caches) plus the document load;
 *   - a few long composition phases (minutes of typing produce no
 *     I/O) separated by manual saves and a one-time dictionary load;
 *   - a proofreading tail with clusters of quick fixes: short edit
 *     bursts separated by sub-breakeven pauses — the source of
 *     subpath-aliasing mispredictions that the idle-history context
 *     (PCAPh) partially resolves;
 *   - an optional "save as" (Section 4.1's editor example);
 *   - an office helper process that maintains recent-documents and
 *     backup copies, giving the application its short local idle
 *     intervals.
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

constexpr Address kBase = 0x08100000;
constexpr Address kPcLoadLib = kBase + 0x010;
constexpr Address kPcConfig = kBase + 0x020;
constexpr Address kPcFonts = kBase + 0x030;
constexpr Address kPcOpenDoc = kBase + 0x040;
constexpr Address kPcDict = kBase + 0x050;
constexpr Address kPcSave = kBase + 0x060;
constexpr Address kPcSaveAs = kBase + 0x070;
constexpr Address kPcEditFix = kBase + 0x080;
constexpr Address kPcRecent = kBase + 0x090;
constexpr Address kPcBackup = kBase + 0x0a0;

constexpr FileId kLibBase = 3000;
constexpr FileId kConfigBase = 3100;
constexpr FileId kFontCache = 3200;
constexpr FileId kDocFile = 3300;
constexpr FileId kSaveAsFile = 3301;
constexpr FileId kDictFile = 3400;
constexpr FileId kRecentFile = 3500;
constexpr FileId kBackupFile = 3501;

constexpr int kLibCount = 42;
constexpr Pid kMainPid = 200;
constexpr Pid kHelperPid = 201;

class WriterModel : public AppModel
{
  public:
    WriterModel()
        : info_{"writer", 33,
                "word processor; long composition phases, quick-fix "
                "clusters, save-as aliasing"}
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
        main.setIntraGap(millisUs(8));

        // --- OpenOffice startup: libraries, configuration, fonts.
        for (int lib = 0; lib < kLibCount; ++lib) {
            const std::uint32_t bytes =
                (100 + (lib * 53) % 200) * 1024;
            main.readFile(kPcLoadLib, 4, kLibBase + lib, 0, bytes,
                          4096);
        }
        for (int cfg = 0; cfg < 12; ++cfg) {
            main.readFile(kPcConfig, 5, kConfigBase + cfg, 0,
                          8 * 1024, 4096);
        }
        main.readFile(kPcFonts, 6, kFontCache, 0, 400 * 1024, 4096);

        main.fork(kHelperPid);
        Actor helper(builder, rng.fork(2), kHelperPid, main.now());
        helper.setIntraGap(millisUs(8));

        // Load the document; the helper records it in recent-docs.
        main.open(kPcOpenDoc, 3, kDocFile);
        main.readFile(kPcOpenDoc, 3, kDocFile, 0, 240 * 1024, 4096);
        helper.advanceTo(main.now() + millisUs(300));
        helper.writeFile(kPcRecent, 4, kRecentFile, 0, 4 * 1024,
                         4096);

        // --- Composition: long typing phases, saves in between.
        const int phases =
            static_cast<int>(main.rng().uniformInt(5, 9));
        bool dictionary_loaded = false;
        for (int phase = 0; phase < phases; ++phase) {
            main.think(26.0, 1.5, 7.0, 1200.0);

            if (!dictionary_loaded && main.rng().chance(0.7)) {
                // First spell-check pulls in the dictionary.
                main.readFile(kPcDict, 7, kDictFile, 0, 300 * 1024,
                              4096);
                dictionary_loaded = true;
                continue;
            }
            saveDocument(main, helper);
        }

        // --- Proofreading: clusters of quick fixes with
        // sub-breakeven pauses between them (subpath aliasing).
        main.think(22.0, 1.4, 7.0, 600.0);
        const int fixes =
            static_cast<int>(main.rng().uniformInt(1, 3));
        for (int fix = 0; fix < fixes; ++fix) {
            main.readFile(kPcEditFix, 3, kDocFile,
                          4096 * static_cast<std::uint64_t>(
                                     main.rng().uniformInt(0, 50)),
                          12 * 1024, 4096);
            if (fix + 1 < fixes)
                main.pauseBetween(millisUs(800), millisUs(3500));
        }
        main.think(12.0, 1.2, 7.0, 300.0);

        // --- Final save, sometimes followed by a "save as" after a
        // sub-breakeven pause (Section 4.1's example).
        saveDocument(main, helper);
        if (main.rng().chance(0.4)) {
            main.pauseBetween(millisUs(2000), millisUs(4000));
            main.open(kPcSaveAs, 11, kSaveAsFile);
            main.writeFile(kPcSaveAs, 11, kSaveAsFile, 0, 80 * 1024,
                           4096);
            main.think(10.0, 0.8, 7.0, 60.0);
        }

        const TimeUs last =
            main.now() > helper.now() ? main.now() : helper.now();
        return builder.finish(last + millisUs(600));
    }

  private:
    /** Manual save: document write, and the helper mirrors a backup
     * copy shortly after on most saves. */
    static void
    saveDocument(Actor &main, Actor &helper)
    {
        main.writeFile(kPcSave, 3, kDocFile, 0, 80 * 1024, 4096);
        if (helper.rng().chance(0.7) && main.now() > helper.now()) {
            helper.advanceTo(main.now() + millisUs(300));
            helper.writeFile(kPcBackup, 4, kBackupFile, 0, 24 * 1024,
                             4096);
        }
    }

    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeWriter()
{
    return std::make_unique<WriterModel>();
}

} // namespace pcap::workload
